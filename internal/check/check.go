// Package check is the simulator's runtime correctness kit: an invariant
// Auditor that attaches to a live scheduler system and continuously verifies
// the conservation laws the paper's conclusions rest on — cluster frequency
// always drawn from the legal table (§II's shared per-cluster clock), the
// "one little core always online" hotplug constraint, virtual time and busy
// counters monotone, per-core busy time bounded by wall time, energy equal to
// the independent integral of modeled power, per-task run time summing
// exactly to per-core busy time, and migration counters reconciling with the
// scheduler's event stream.
//
// The disabled path is a nil Auditor (or an unset Config.Check hook): like
// telemetry.Collector and profile.Profiler, every simulation holds at most
// one pointer check per hook site, so unaudited runs pay nothing.
//
// The auditor is a pure observer: it schedules its own 10 ms sampling event
// immediately after the metrics sampler's so both read identical state, it
// subscribes to the scheduler tick (sched.System.OnTick), it chains (never
// replaces) the telemetry OnEvent subscriber, and it never mutates the
// system — an audited run produces byte-identical results to an unaudited
// one, which internal/lab's audit mode exploits to verify cached results
// against fresh simulations.
package check

import (
	"fmt"
	"math"
	"strings"

	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
)

// DefaultMaxViolations bounds the recorded violation list; a systemically
// broken run would otherwise record one violation per tick.
const DefaultMaxViolations = 64

// EnergyTolerance is the maximum relative disagreement allowed between the
// power meter and the auditor's independent power integral. The two are
// computed from the same state in the same order, so the observed error is
// zero; 0.1% leaves room for future power-model refactoring that reorders
// float accumulation.
const EnergyTolerance = 0.001

// Violation is one observed invariant breach.
type Violation struct {
	At        event.Time `json:"at"`
	Invariant string     `json:"invariant"`
	Detail    string     `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Invariant, v.Detail)
}

// Report summarizes an audited run: how much was checked, the two energy
// accountings, the migration reconciliation, and every violation found.
type Report struct {
	Ticks   int   `json:"ticks"`
	Samples int   `json:"samples"`
	Checks  int64 `json:"checks"`

	EnergyMeterMJ    float64 `json:"energy_meter_mj"`
	EnergyIntegralMJ float64 `json:"energy_integral_mj"`
	MigrationEvents  int64   `json:"migration_events"`
	TaskMigrations   int     `json:"task_migrations"`

	Violations []Violation `json:"violations,omitempty"`
	// Dropped counts violations beyond the DefaultMaxViolations cap.
	Dropped int `json:"dropped,omitempty"`
}

// Ok reports whether the audited run violated no invariant.
func (r Report) Ok() bool { return len(r.Violations) == 0 && r.Dropped == 0 }

// String renders the report as a short text block, one violation per line.
func (r Report) String() string {
	var b strings.Builder
	status := "ok"
	if !r.Ok() {
		status = fmt.Sprintf("%d VIOLATIONS", len(r.Violations)+r.Dropped)
	}
	fmt.Fprintf(&b, "check: %s — %d invariant checks over %d ticks, %d samples\n",
		status, r.Checks, r.Ticks, r.Samples)
	fmt.Fprintf(&b, "check: energy meter %.3f mJ vs independent integral %.3f mJ; %d task migrations vs %d sched events\n",
		r.EnergyMeterMJ, r.EnergyIntegralMJ, r.TaskMigrations, r.MigrationEvents)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  ... and %d more violations beyond the cap\n", r.Dropped)
	}
	return b.String()
}

// Auditor is the runtime invariant checker. Create with New, pass as
// core.Config.Check, and read Report or Err after the run or session. All
// methods are safe on a nil receiver.
//
// Per scheduler tick it verifies: virtual time monotone, every cluster's
// frequency in its table and under its thermal cap, at least one little core
// online, offline cores with empty run queues, runnable tasks only on online
// cores, and per-core busy time monotone and bounded by wall time. Per 10 ms
// sample it re-integrates system power from busy-time deltas, mirroring the
// metrics sampler's accumulation order exactly. From the telemetry stream it
// validates every frequency-change and hotplug event and counts HMP
// migrations. Finish reconciles the integral against the meter, per-task run
// time against per-core busy time, and migration counters against events.
type Auditor struct {
	sys *sched.System
	pw  power.Params

	lastTick   event.Time
	haveTick   bool
	lastSample event.Time
	sampleFn   event.Handler // cached method value: evaluating a.onSample allocates

	lastBusy []event.Time // per-core BusyNs at the last audit sample
	lastDeep []event.Time // per-core DeepIdleNs at the last audit sample
	tickBusy []event.Time // per-core BusyNs at the last tick (monotonicity)

	integralMJ float64
	migEvents  int64

	rep      Report
	finished bool
}

// New returns an enabled auditor with default limits.
func New() *Auditor { return &Auditor{} }

// Attach installs the auditor on a live system. It must be called after the
// metrics sampler's Start and before any workload is built, so the auditor's
// 10 ms sampling event fires immediately after the sampler's at every shared
// timestamp and both observe identical frequency and busy-time state
// (core.Assemble does this for runs and sessions via Config.Check). Safe on
// nil; a second Attach is ignored.
func (a *Auditor) Attach(sys *sched.System, pw power.Params) {
	if a == nil || a.sys != nil {
		return
	}
	a.sys = sys
	a.pw = pw
	n := len(sys.SoC.Cores)
	a.lastBusy = make([]event.Time, n)
	a.lastDeep = make([]event.Time, n)
	a.tickBusy = make([]event.Time, n)

	// Migration reconciliation and event validation need the scheduler's
	// telemetry stream. Chain onto an existing collector; if the run has
	// none, install a minimal one (exact aggregates, tiny ring). Emission is
	// pure recording, so this does not perturb the simulation.
	if sys.Tel == nil {
		sys.Tel = &telemetry.Collector{MaxEvents: 1}
	}
	tel := sys.Tel
	prevOn := tel.OnEvent
	tel.OnEvent = func(ev telemetry.Event) {
		a.onEvent(ev)
		if prevOn != nil {
			prevOn(ev)
		}
	}

	sys.OnTick(a.onTick)

	a.sampleFn = a.onSample
	sys.Eng.After(metrics.SampleInterval, a.sampleFn)
}

// onTick runs at the end of every scheduler tick, after SyncAll.
func (a *Auditor) onTick(now event.Time) {
	a.rep.Ticks++
	a.rep.Checks++
	if a.haveTick && now <= a.lastTick {
		a.fail(now, "time-monotone", fmt.Sprintf("tick at %v not after previous tick at %v", now, a.lastTick))
	}
	a.haveTick = true
	a.lastTick = now
	a.checkState(now)
}

// checkState verifies the platform and scheduler invariants that must hold
// at any consistent (synced) instant.
func (a *Auditor) checkState(now event.Time) {
	soc := a.sys.SoC
	for ci := range soc.Clusters {
		cl := &soc.Clusters[ci]
		a.rep.Checks++
		if !inTable(cl.FreqsMHz, cl.CurMHz) {
			a.fail(now, "freq-table", fmt.Sprintf("cluster %d (%v) at %d MHz, not in its frequency table", ci, cl.Type, cl.CurMHz))
		}
		a.rep.Checks++
		if cl.CapMHz > 0 && cl.CurMHz > cl.CapMHz {
			a.fail(now, "freq-cap", fmt.Sprintf("cluster %d (%v) at %d MHz above its thermal cap %d", ci, cl.Type, cl.CurMHz, cl.CapMHz))
		}
	}
	a.rep.Checks++
	if soc.OnlineCount(platform.Little) < 1 {
		a.fail(now, "little-online", "no little core online (§II hotplug constraint)")
	}
	for id := range soc.Cores {
		busy := a.sys.BusyNs(id)
		a.rep.Checks++
		if busy < a.tickBusy[id] {
			a.fail(now, "busy-monotone", fmt.Sprintf("core %d busy time went backwards: %v -> %v", id, a.tickBusy[id], busy))
		}
		a.tickBusy[id] = busy
		a.rep.Checks++
		if busy > now {
			a.fail(now, "busy-bound", fmt.Sprintf("core %d busy %v exceeds elapsed time %v", id, busy, now))
		}
		a.rep.Checks++
		if !soc.Cores[id].Online && a.sys.QueueLen(id) != 0 {
			a.fail(now, "offline-queue", fmt.Sprintf("offline core %d has %d queued tasks", id, a.sys.QueueLen(id)))
		}
	}
	for _, t := range a.sys.Tasks() {
		st := t.CurState()
		if st != sched.Runnable && st != sched.Running {
			continue
		}
		a.rep.Checks++
		if cpu := t.CPU(); cpu < 0 || !soc.Cores[cpu].Online {
			a.fail(now, "offline-task", fmt.Sprintf("task %d (%s) %v on offline core %d", t.ID, t.Name, st, cpu))
		}
	}
}

// onEvent validates state-changing telemetry events as they happen and
// counts the migrations that the per-task counters must reconcile with.
func (a *Auditor) onEvent(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindMigration:
		switch ev.Reason {
		case telemetry.ReasonUpThreshold, telemetry.ReasonDownThreshold, telemetry.ReasonPolicy:
			a.migEvents++
		}
	case telemetry.KindFreq:
		a.rep.Checks++
		cl := &a.sys.SoC.Clusters[ev.Cluster]
		if !inTable(cl.FreqsMHz, ev.MHz) {
			a.fail(ev.At, "freq-table", fmt.Sprintf("freq event set cluster %d to %d MHz, not in its table", ev.Cluster, ev.MHz))
		}
	case telemetry.KindHotplug:
		a.rep.Checks++
		if a.sys.SoC.OnlineCount(platform.Little) < 1 {
			a.fail(ev.At, "little-online", fmt.Sprintf("hotplug %s of core %d left no little core online", ev.Reason, ev.Core))
		}
	}
}

// onSample fires every metrics.SampleInterval, immediately after the metrics
// sampler (Attach ordering guarantees the event sequence), and independently
// integrates system power from the same busy-time deltas.
func (a *Auditor) onSample(now event.Time) {
	a.rep.Samples++
	a.rep.Checks++
	if now <= a.lastSample {
		a.fail(now, "time-monotone", fmt.Sprintf("sample at %v not after previous sample at %v", now, a.lastSample))
	}
	a.lastSample = now
	a.sys.SyncAll(now)
	soc := a.sys.SoC
	// Mirror the metrics sampler's accumulation exactly — base rail first,
	// then each online core in ID order — so a healthy run's integral agrees
	// with the meter bit-for-bit.
	mw := a.pw.BaseMW
	for id := range soc.Cores {
		core := &soc.Cores[id]
		busy := a.sys.BusyNs(id)
		if !core.Online {
			a.lastBusy[id] = busy
			continue
		}
		delta := busy - a.lastBusy[id]
		a.rep.Checks++
		if delta < 0 || delta > metrics.SampleInterval {
			a.fail(now, "sample-bound", fmt.Sprintf("core %d ran %v within a %v sample", id, delta, metrics.SampleInterval))
		}
		util := sched.CoreBusyFraction(a.lastBusy[id], busy, metrics.SampleInterval)
		a.lastBusy[id] = busy
		deep := a.sys.DeepIdleNs(id)
		a.rep.Checks++
		if deep < a.lastDeep[id] {
			a.fail(now, "deep-monotone", fmt.Sprintf("core %d deep-idle time went backwards: %v -> %v", id, a.lastDeep[id], deep))
		}
		deepFrac := sched.CoreBusyFraction(a.lastDeep[id], deep, metrics.SampleInterval)
		a.lastDeep[id] = deep
		cl := soc.ClusterOf(id)
		mw += a.pw.CorePowerDeepMW(core.Type, cl.CurMHz, util, deepFrac)
	}
	a.integralMJ += mw * metrics.SampleInterval.Seconds()
	a.sys.Eng.After(metrics.SampleInterval, a.sampleFn)
}

// Finish runs the end-of-run conservation checks: the energy integral
// against the meter reading, per-task run time against per-core busy time
// (exact, integer nanoseconds), per-core busy time against wall time, and
// task migration counters against the scheduler's event stream. core.Run and
// session.Live call it after the result is assembled; it is idempotent and
// safe on nil or unattached auditors.
func (a *Auditor) Finish(elapsed event.Time, meterMJ float64) {
	if a == nil || a.sys == nil || a.finished {
		return
	}
	a.finished = true
	a.rep.EnergyMeterMJ = meterMJ
	a.rep.EnergyIntegralMJ = a.integralMJ
	a.rep.Checks++
	if diff := math.Abs(meterMJ - a.integralMJ); diff > 1e-9 {
		tol := EnergyTolerance * math.Max(math.Abs(meterMJ), math.Abs(a.integralMJ))
		if diff > tol {
			a.fail(elapsed, "energy-integral", fmt.Sprintf("meter %.6f mJ vs independent power integral %.6f mJ (diff %.6f > tolerance %.6f)",
				meterMJ, a.integralMJ, diff, tol))
		}
	}

	// Run-time conservation: both sides of this identity advance in the same
	// sched.sync call, so they agree exactly at any instant — no final
	// SyncAll needed (and none is done: the auditor never mutates state the
	// result was assembled from).
	var taskNs, coreBusy event.Time
	taskMig := 0
	for _, t := range a.sys.Tasks() {
		taskNs += t.BigRanNs + t.LittleRanNs + t.TinyRanNs
		taskMig += t.Migrations
	}
	soc := a.sys.SoC
	for id := range soc.Cores {
		busy := a.sys.BusyNs(id)
		coreBusy += busy
		a.rep.Checks++
		if busy > elapsed {
			a.fail(elapsed, "busy-elapsed", fmt.Sprintf("core %d busy %v exceeds wall time %v", id, busy, elapsed))
		}
	}
	a.rep.Checks++
	if taskNs != coreBusy {
		a.fail(elapsed, "runtime-conservation", fmt.Sprintf("per-task run time %v != per-core busy time %v", taskNs, coreBusy))
	}

	a.rep.TaskMigrations = taskMig
	a.rep.MigrationEvents = a.migEvents
	a.rep.Checks++
	if int64(taskMig) != a.migEvents {
		a.fail(elapsed, "migration-reconcile", fmt.Sprintf("task migration counters sum to %d but the scheduler emitted %d threshold/policy migration events",
			taskMig, a.migEvents))
	}
}

// Report returns a copy of the audit report so far (complete after Finish).
func (a *Auditor) Report() Report {
	if a == nil {
		return Report{}
	}
	rep := a.rep
	rep.Violations = append([]Violation(nil), a.rep.Violations...)
	return rep
}

// Err returns nil when no invariant was violated, else an error naming the
// first violation and the total count.
func (a *Auditor) Err() error {
	if a == nil || a.rep.Ok() {
		return nil
	}
	return fmt.Errorf("check: %d invariant violations, first: %s",
		len(a.rep.Violations)+a.rep.Dropped, a.rep.Violations[0])
}

func (a *Auditor) fail(at event.Time, invariant, detail string) {
	if len(a.rep.Violations) >= DefaultMaxViolations {
		a.rep.Dropped++
		return
	}
	a.rep.Violations = append(a.rep.Violations, Violation{At: at, Invariant: invariant, Detail: detail})
}

func inTable(table []int, mhz int) bool {
	for _, f := range table {
		if f == mhz {
			return true
		}
	}
	return false
}
