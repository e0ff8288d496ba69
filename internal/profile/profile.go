// Package profile is the simulator's per-task attribution layer: where
// internal/trace samples state per tick and internal/telemetry records
// transitions, profile answers "which task got what" — schedstat-style
// run/runnable/sleep time split by core type, per-(core type, MHz) frequency
// residency (the per-task version of the Figure 9/10 distributions), energy
// attribution that partitions every metered millijoule across the tasks that
// ran while it was burned, and migration accounting with direction and the
// runnable stall each move cost.
//
// The profiler consumes three streams:
//
//   - the scheduler's sync intervals (OnRun/OnWait/OnWake/OnMigration),
//     emitted from internal/sched behind a single nil check per site;
//   - the 10 ms power-model intervals (OnPowerInterval), emitted by
//     internal/metrics with the same per-core power terms it feeds the
//     meter, so attribution is conservative by construction: the sum of
//     per-task energy plus the unattributed (idle + base while nothing ran)
//     remainder equals power.Meter.EnergyMJ to float rounding.
//
// Attribution rules: a power interval's per-core energy (dynamic + overhead,
// including the core's own idle share) is split across the tasks that ran on
// that core during the interval, proportional to their run time there; a
// core that ran nothing contributes to the unattributed bucket. The base
// rail is split across all tasks proportional to total run time in the
// interval, or unattributed when the whole system was idle. This is the
// powertop convention: whoever kept the silicon awake owns its cost.
//
// The disabled path is a nil *Profiler: every method is safe on nil and
// every emit site in the scheduler guards with one pointer check, so runs
// without profiling pay essentially nothing (BenchmarkProfilerOff/On in the
// root package quantifies it). Like telemetry, the profiler assumes the
// single-threaded event engine; concurrent readers (blserve) must serialize
// against the simulation externally.
package profile

import (
	"cmp"
	"slices"
	"strings"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/telemetry"
)

// CorePower is one online core's power during a power-model interval, as
// computed by the metrics sampler (dynamic + activity overhead, after deep
// idle gating). Core identifies the core so the profiler can match it with
// the per-core run accounting of the same interval.
type CorePower struct {
	Core int
	MW   float64
}

// taskState is the mutable per-task accumulator.
type taskState struct {
	id   int
	name string

	run       [3]event.Time // indexed by platform.CoreType.Tier(): tiny, little, big
	waitNs    event.Time    // runnable-but-not-running (schedstat run_delay)
	residency map[resKey]event.Time

	energyMJ float64

	migrations     int        // every inter-core move (incl. balance, hotplug)
	hmpMigrations  int        // up/down-threshold + policy moves (= Result.HMPMigrations share)
	upMigrations   int        // moves to a higher tier
	downMigrations int        // moves to a lower tier
	stallNs        event.Time // runnable time spent waiting right after a migration

	wakes     int
	wakeLatNs event.Time // cumulative wake-to-first-run latency
	lastWake  event.Time
	awaiting  bool // between a wake and its first run interval
	migrating bool // between a migration and its next run interval
}

type resKey struct {
	typ platform.CoreType
	mhz int
}

// Profiler accumulates per-task attribution for one run. A nil *Profiler is
// valid everywhere and disables all recording.
type Profiler struct {
	tasks []*taskState // indexed by task ID; nil slots for unseen IDs

	// Per-power-interval run accounting: ivRun[core][taskID] is the run time
	// of taskID on core since the last OnPowerInterval. Rows grow lazily and
	// are zeroed (not freed) at each interval boundary.
	ivRun [][]event.Time
	// ivTotal is a scratch buffer of per-task run totals for base splitting.
	ivTotal []event.Time

	attributedMJ   float64
	unattributedMJ float64
	intervals      int
}

// New returns an enabled Profiler.
func New() *Profiler { return &Profiler{} }

// task returns (creating if needed) the accumulator for id.
func (p *Profiler) task(id int, name string) *taskState {
	for id >= len(p.tasks) {
		p.tasks = append(p.tasks, nil)
	}
	t := p.tasks[id]
	if t == nil {
		t = &taskState{id: id, name: name, residency: map[resKey]event.Time{}}
		p.tasks[id] = t
	}
	return t
}

// OnWake records a sleeping task being woken at now. The next OnRun for the
// task closes the wake-to-run latency.
func (p *Profiler) OnWake(id int, name string, now event.Time) {
	if p == nil {
		return
	}
	t := p.task(id, name)
	t.wakes++
	t.lastWake = now
	t.awaiting = true
}

// OnRun attributes dt of execution ending at now to task id on the given
// core: run time by core type, frequency residency at (typ, mhz), and the
// interval accounting used for energy attribution.
func (p *Profiler) OnRun(id int, name string, core int, typ platform.CoreType, mhz int, dt, now event.Time) {
	if p == nil || dt <= 0 {
		return
	}
	t := p.task(id, name)
	t.run[typ.Tier()] += dt
	t.residency[resKey{typ, mhz}] += dt
	if t.awaiting {
		// The run interval started at now-dt; latency is wake → first run.
		if lat := now - dt - t.lastWake; lat > 0 {
			t.wakeLatNs += lat
		}
		t.awaiting = false
	}
	t.migrating = false

	for core >= len(p.ivRun) {
		p.ivRun = append(p.ivRun, nil)
	}
	row := p.ivRun[core]
	for id >= len(row) {
		row = append(row, 0)
	}
	row[id] += dt
	p.ivRun[core] = row
}

// OnWait attributes dt of runnable-but-not-running time to task id
// (schedstat's run_delay). Waits immediately following a migration also
// accrue to the task's migration stall.
func (p *Profiler) OnWait(id int, name string, dt event.Time) {
	if p == nil || dt <= 0 {
		return
	}
	t := p.task(id, name)
	t.waitNs += dt
	if t.migrating {
		t.stallNs += dt
	}
}

// OnMigration records task id moving between core types for the given
// telemetry reason. Up/down direction follows the capability tiers; the
// HMP count covers the same reasons as telemetry.HMPMigrations and the
// scheduler's Result.HMPMigrations (threshold and policy moves only).
func (p *Profiler) OnMigration(id int, name string, from, to platform.CoreType, reason string) {
	if p == nil {
		return
	}
	t := p.task(id, name)
	t.migrations++
	switch {
	case to.Tier() > from.Tier():
		t.upMigrations++
	case to.Tier() < from.Tier():
		t.downMigrations++
	}
	switch reason {
	case telemetry.ReasonUpThreshold, telemetry.ReasonDownThreshold, telemetry.ReasonPolicy:
		t.hmpMigrations++
	}
	t.migrating = true
}

// OnPowerInterval attributes one power-model interval: each core's energy
// (cp.MW over dt) is split across the tasks that ran on it since the last
// interval, proportional to run time; idle cores and the base rail while no
// task ran go to the unattributed bucket. The per-interval run accounting is
// reset afterwards. Called by the metrics sampler with the same per-core
// power terms it feeds the meter, so attributed + unattributed energy equals
// the meter's total.
func (p *Profiler) OnPowerInterval(dt event.Time, baseMW float64, cores []CorePower) {
	if p == nil || dt <= 0 {
		return
	}
	p.intervals++
	secs := dt.Seconds()

	for _, cp := range cores {
		eMJ := cp.MW * secs
		if eMJ == 0 {
			continue
		}
		var row []event.Time
		if cp.Core < len(p.ivRun) {
			row = p.ivRun[cp.Core]
		}
		var coreRun event.Time
		for _, r := range row {
			coreRun += r
		}
		if coreRun <= 0 {
			p.unattributedMJ += eMJ
			continue
		}
		for id, r := range row {
			if r > 0 {
				share := eMJ * float64(r) / float64(coreRun)
				p.tasks[id].energyMJ += share
				p.attributedMJ += share
			}
		}
	}

	// Base rail: split by each task's total run time this interval.
	for i := range p.ivTotal {
		p.ivTotal[i] = 0
	}
	var total event.Time
	for _, row := range p.ivRun {
		for id, r := range row {
			if r <= 0 {
				continue
			}
			for id >= len(p.ivTotal) {
				p.ivTotal = append(p.ivTotal, 0)
			}
			p.ivTotal[id] += r
			total += r
		}
	}
	baseMJ := baseMW * secs
	if total <= 0 {
		p.unattributedMJ += baseMJ
	} else {
		for id, r := range p.ivTotal {
			if r > 0 {
				share := baseMJ * float64(r) / float64(total)
				p.tasks[id].energyMJ += share
				p.attributedMJ += share
			}
		}
	}

	for _, row := range p.ivRun {
		for i := range row {
			row[i] = 0
		}
	}
}

// ResidencySlot is one (core type, MHz) cell of a task's frequency
// residency.
type ResidencySlot struct {
	Type string     `json:"type"`
	MHz  int        `json:"mhz"`
	Ns   event.Time `json:"ns"`
}

// TaskSnapshot is one task's attribution at a point in time.
type TaskSnapshot struct {
	ID   int    `json:"id"`
	Name string `json:"name"`

	// Schedstat-style time accounting. SleepNs is derived: elapsed minus run
	// minus wait (it includes deep-idle wake latency, which is neither).
	TinyRunNs   event.Time `json:"tiny_run_ns,omitempty"`
	LittleRunNs event.Time `json:"little_run_ns"`
	BigRunNs    event.Time `json:"big_run_ns"`
	RunNs       event.Time `json:"run_ns"`
	WaitNs      event.Time `json:"wait_ns"`
	SleepNs     event.Time `json:"sleep_ns"`

	// Wake accounting: wake count and cumulative wake-to-first-run latency.
	Wakes         int        `json:"wakes"`
	WakeLatencyNs event.Time `json:"wake_latency_ns"`

	// Residency is the per-(core type, MHz) run time, sorted by type then
	// ascending frequency — the per-task Figures 9/10.
	Residency []ResidencySlot `json:"residency,omitempty"`

	// EnergyMJ is the task's attributed share of metered system energy.
	EnergyMJ float64 `json:"energy_mj"`

	// Migration accounting. HMPMigrations counts threshold + policy moves
	// (the Result.HMPMigrations definition); Migrations counts every move
	// including balance pulls and hotplug evictions. MigrationStallNs is the
	// runnable time spent waiting immediately after a migration — the cost
	// of each move in this model.
	Migrations       int        `json:"migrations"`
	HMPMigrations    int        `json:"hmp_migrations"`
	UpMigrations     int        `json:"up_migrations"`
	DownMigrations   int        `json:"down_migrations"`
	MigrationStallNs event.Time `json:"migration_stall_ns"`
}

// Snapshot is the full attribution table at a point in time.
type Snapshot struct {
	// ElapsedNs is the simulated time the snapshot covers.
	ElapsedNs event.Time `json:"elapsed_ns"`
	// Tasks is sorted by attributed energy, descending.
	Tasks []TaskSnapshot `json:"tasks"`
	// AttributedMJ + UnattributedMJ = the power meter's EnergyMJ (to float
	// rounding): the conservation invariant tests assert.
	AttributedMJ   float64 `json:"attributed_mj"`
	UnattributedMJ float64 `json:"unattributed_mj"`
	TotalEnergyMJ  float64 `json:"total_energy_mj"`
	// Intervals is the number of power-model intervals attributed.
	Intervals int `json:"intervals"`
}

// Snapshot returns a copy of the current attribution tables; elapsed is the
// simulated time covered (used to derive per-task sleep time). The caller
// owns the copy: the profiler never writes to it again. It is built in two
// allocations however many tasks there are: the task table, and one array
// that every task's Residency is carved from.
func (p *Profiler) Snapshot(elapsed event.Time) Snapshot {
	s := Snapshot{ElapsedNs: elapsed}
	if p == nil {
		return s
	}
	s.AttributedMJ = p.attributedMJ
	s.UnattributedMJ = p.unattributedMJ
	s.TotalEnergyMJ = p.attributedMJ + p.unattributedMJ
	s.Intervals = p.intervals
	var nTasks, nSlots int
	for _, t := range p.tasks {
		if t != nil {
			nTasks++
			nSlots += len(t.residency)
		}
	}
	s.Tasks = make([]TaskSnapshot, 0, nTasks)
	slots := make([]ResidencySlot, 0, nSlots)
	for _, t := range p.tasks {
		if t == nil {
			continue
		}
		ts := TaskSnapshot{
			ID:   t.id,
			Name: t.name,

			TinyRunNs:   t.run[platform.Tiny.Tier()],
			LittleRunNs: t.run[platform.Little.Tier()],
			BigRunNs:    t.run[platform.Big.Tier()],
			WaitNs:      t.waitNs,

			Wakes:         t.wakes,
			WakeLatencyNs: t.wakeLatNs,

			EnergyMJ: t.energyMJ,

			Migrations:       t.migrations,
			HMPMigrations:    t.hmpMigrations,
			UpMigrations:     t.upMigrations,
			DownMigrations:   t.downMigrations,
			MigrationStallNs: t.stallNs,
		}
		ts.RunNs = ts.TinyRunNs + ts.LittleRunNs + ts.BigRunNs
		if sleep := elapsed - ts.RunNs - ts.WaitNs; sleep > 0 {
			ts.SleepNs = sleep
		}
		if len(t.residency) > 0 {
			start := len(slots)
			for k, ns := range t.residency {
				slots = append(slots, ResidencySlot{Type: k.typ.String(), MHz: k.mhz, Ns: ns})
			}
			// The full slice expression caps each task's cells, so that an
			// append to one task's Residency cannot overwrite the next's.
			ts.Residency = slots[start:len(slots):len(slots)]
			slices.SortFunc(ts.Residency, func(a, b ResidencySlot) int {
				return cmp.Or(strings.Compare(a.Type, b.Type), cmp.Compare(a.MHz, b.MHz))
			})
		}
		s.Tasks = append(s.Tasks, ts)
	}
	slices.SortFunc(s.Tasks, func(a, b TaskSnapshot) int {
		return cmp.Or(cmp.Compare(b.EnergyMJ, a.EnergyMJ), cmp.Compare(a.ID, b.ID))
	})
	return s
}

// Task returns the named task's snapshot, or false when unknown.
func (s Snapshot) Task(name string) (TaskSnapshot, bool) {
	for _, t := range s.Tasks {
		if t.Name == name {
			return t, true
		}
	}
	return TaskSnapshot{}, false
}

// HMPMigrations sums the per-task HMP migration counts — the quantity that
// reconciles with core.Result.HMPMigrations and telemetry.HMPMigrations.
func (s Snapshot) HMPMigrations() int {
	n := 0
	for _, t := range s.Tasks {
		n += t.HMPMigrations
	}
	return n
}
