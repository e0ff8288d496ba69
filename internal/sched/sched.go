// Package sched implements the CPU execution engine and the HMP
// (Heterogeneous Multi-Processing) scheduler described in §IV-B of the paper
// (Algorithm 1): per-core run queues with round-robin time slicing at 1 ms
// scheduler ticks, per-task frequency-invariant load tracking with geometric
// decay (half-life 32 ms), up/down-threshold migration between the big and
// little clusters, intra-cluster load balancing, and load-based wake
// placement.
//
// Work is expressed in little-core cycles: a task segment of W cycles runs at
// rate f·1e6 cycles/s on a little core at f MHz and at Speedup·f·1e6 on a big
// core, where Speedup is the task's big-core efficiency (§IV-A).
package sched

import (
	"fmt"

	"biglittle/internal/event"
	"biglittle/internal/pelt"
	"biglittle/internal/platform"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// Config holds the HMP scheduler tunables swept in §VI-C.
type Config struct {
	// UpThreshold: a task on a little core migrates up when its tracked
	// load exceeds this (default 700 of 1024).
	UpThreshold int
	// DownThreshold: a task on a big core migrates down below this
	// (default 256).
	DownThreshold int
	// HalfLifeMs is the load-history time weight (default 32; the paper
	// sweeps 2x and ½x).
	HalfLifeMs int
	// TickMs is the scheduler tick (load update / migration / balancing
	// period). The paper's load history operates at 1 ms granularity.
	TickMs int
	// DeepIdle enables the deep (cluster-sleep) idle state: a core idle for
	// longer than DeepIdleAfter powers down its activity overhead entirely
	// but pays DeepIdleWake of extra latency on the next wake — the cpuidle
	// menu-governor trade-off. Zero values disable deep idle (WFI only).
	DeepIdleAfter event.Time
	DeepIdleWake  event.Time
	// TinyWakeLoad gates the tiny tier (platforms with tiny cores only): a
	// task may wake on or migrate down to a tiny core only when its
	// burst footprint — the EWMA of its load at sleep time — is below this
	// value. This is the small-task-packing heuristic tiny-core proposals
	// rely on; placing by instantaneous (decayed) load alone would sink
	// every interactive thread into the tiny cluster. Default 70.
	TinyWakeLoad int
}

// DefaultConfig returns the paper's baseline HMP parameters.
func DefaultConfig() Config {
	return Config{UpThreshold: 700, DownThreshold: 256, HalfLifeMs: pelt.DefaultHalfLifeMs, TickMs: 1, TinyWakeLoad: 70}
}

// State is a task's lifecycle state.
type State int

const (
	Sleeping State = iota
	Waking         // paying a deep-idle exit latency before enqueue
	Runnable       // on a run queue, not executing
	Running        // head of a run queue
)

func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Waking:
		return "waking"
	case Runnable:
		return "runnable"
	default:
		return "running"
	}
}

// Task is a schedulable entity.
type Task struct {
	ID   int
	Name string
	// Speedup is the big-core efficiency: execution rate multiplier when
	// running on a big core (>= 1).
	Speedup float64

	// OnSegment fires when a pushed work segment completes.
	OnSegment func(now event.Time)
	// OnIdle fires when the task drains all queued work and goes to sleep.
	OnIdle func(now event.Time)

	sys       *System
	tracker   *pelt.Tracker
	state     State
	cpu       int // current queue, -1 when sleeping
	pinned    int // affinity: -1 means any core
	lastCPU   int // last cpu it was queued on (for wake placement / freq scale)
	remaining float64
	// fifo[fifoHead:] holds pending work segments. The head index (rather
	// than re-slicing fifo[1:]) keeps the backing array's front capacity, so
	// steady push/pop cycles reuse one allocation instead of growing forever.
	fifo     []float64
	fifoHead int
	ranNs    event.Time // execution time within the current tick window
	wokeAt   event.Time
	// sleepLoad is an EWMA of the task's load at each sleep transition —
	// its "burst footprint", used to gate the tiny tier.
	sleepLoad float64
	// wakeFn/wakeEv/wakeDst track the deep-idle exit event: the handler is
	// bound once at task creation and the handle retained so snapshot can
	// capture (and restore can re-bind) an in-flight wake.
	wakeFn  event.Handler
	wakeEv  event.Handle
	wakeDst int

	// Stats
	TotalWork    float64
	Migrations   int
	SegmentsDone int
	BigRanNs     event.Time
	LittleRanNs  event.Time
	TinyRanNs    event.Time
	// EnergyMJ attributes the activity-proportional system energy to the
	// task (accumulated when System.EnergyModel is set).
	EnergyMJ float64
}

// Load returns the task's tracked HMP load (0..1024).
func (t *Task) Load() int { return t.tracker.Load() }

// Pin restricts the task to one core: it always wakes there and is exempt
// from HMP migration and load balancing (the kernel's CPU affinity mask).
// Pin must be called while the task is asleep; pinning to an offline core
// panics at the next wake.
func (t *Task) Pin(cpu int) { t.pinned = cpu }

// Boost raises the task's tracked load to at least v (0..1024), mimicking
// the input-boost mechanism Android applies on touch events so that the
// responding threads are immediately eligible for a big core. The boost
// decays through normal load tracking.
func (t *Task) Boost(v int) {
	if float64(v) > t.tracker.LoadF() {
		t.tracker.Set(float64(v))
		if t.sys != nil && t.sys.Tel != nil {
			t.sys.Tel.Emit(telemetry.Event{
				At: t.sys.Eng.Now(), Kind: telemetry.KindBoost,
				Task: t.ID, TaskName: t.Name,
				Core: t.cpu, FromCore: -1, Cluster: -1,
				Value: float64(v),
			})
		}
	}
}

// State returns the current lifecycle state.
func (t *Task) CurState() State { return t.state }

// CPU returns the core the task is queued on, or -1.
func (t *Task) CPU() int { return t.cpu }

// Queued returns the number of pending work segments beyond the current one.
func (t *Task) Queued() int { return len(t.fifo) - t.fifoHead }

type cpu struct {
	id       int
	typ      platform.CoreType
	queue    []*Task
	lastSync event.Time
	busyCum  event.Time
	// completion is the pending completion event for the head task.
	// completeFn is the handler it fires, built once per cpu so dispatch —
	// the hottest scheduler path — never allocates a closure.
	completion event.Handle
	completeFn event.Handler
	sliceUsed  int // consecutive ticks the head has run (for round-robin)
	// idleSince marks when the core last became idle; deepCum accumulates
	// time spent in the deep idle state (after Cfg.DeepIdleAfter of idling).
	idleSince event.Time
	deepCum   event.Time
}

// System drives task execution over a platform SoC.
type System struct {
	Eng *event.Engine
	SoC *platform.SoC
	Cfg Config

	cpus    []*cpu
	tasks   []*Task
	tick    event.Time
	tickFn  event.Handler // onTick bound once; re-arming it must not allocate
	tickEv  event.Handle  // the pending tick (retained for snapshot capture)
	started bool

	// Tel, when non-nil, receives a telemetry event for every migration
	// (with its reason), wake placement, round-robin preemption, boost,
	// frequency change, and hotplug transition. Nil disables all recording
	// at the cost of one pointer check per occurrence.
	Tel *telemetry.Collector

	// Prof, when non-nil, receives per-task attribution streams: every sync
	// interval's run time (with core type and frequency) and runnable wait,
	// every wake, and every migration. Nil disables attribution at the cost
	// of one pointer check per emit site.
	Prof *profile.Profiler

	// Xray, when non-nil, receives a decision span for every wake placement,
	// migration, and hotplug transition: the candidate cores considered, the
	// thresholds compared, and the rejection reason per alternative, causally
	// linked into chains. Nil disables causal tracing at the cost of one
	// pointer check per decision (see internal/sched/xray.go).
	Xray *xray.Tracer

	// tickSubs are the OnTick subscribers, in subscription order.
	tickSubs []func(now event.Time)

	// MigrateHook, if set, replaces the built-in HMP threshold migration:
	// it runs every tick after load updates and may call MoveToType to
	// reassign tasks. Alternative scheduling policies (efficiency-based,
	// parallelism-aware; §IV-A of the paper) plug in here. It is a single
	// policy slot, not a chain: installing a policy replaces the previous one.
	MigrateHook func(now event.Time)
	// WakeHook, if set, overrides HMP wake placement: it returns the core
	// type a waking task should be placed on. Pinned tasks ignore it. Like
	// MigrateHook, it is a single policy slot.
	WakeHook func(t *Task) platform.CoreType

	// EnergyModel, if set, returns the marginal active power (mW) of a core
	// of the given type at the given frequency; the scheduler uses it to
	// attribute energy to the running task in sync.
	EnergyModel func(typ platform.CoreType, mhz int) float64
}

// New creates a System over soc. Call Start before running the engine.
func New(eng *event.Engine, soc *platform.SoC, cfg Config) *System {
	if cfg.TickMs <= 0 {
		cfg.TickMs = 1
	}
	s := &System{Eng: eng, SoC: soc, Cfg: cfg, tick: event.Time(cfg.TickMs) * event.Millisecond}
	s.tickFn = s.onTick
	for i := range soc.Cores {
		c := &cpu{id: i, typ: soc.Cores[i].Type}
		c.completeFn = func(at event.Time) { s.onCompletion(c, at) }
		s.cpus = append(s.cpus, c)
	}
	return s
}

// Tasks returns all created tasks.
func (s *System) Tasks() []*Task { return s.tasks }

// NewTask registers a task. speedup is its big-core efficiency (clamped to
// >= 1). Tasks start asleep with zero load.
func (s *System) NewTask(name string, speedup float64) *Task {
	if speedup < 1 {
		speedup = 1
	}
	t := &Task{
		ID:      len(s.tasks),
		Name:    name,
		Speedup: speedup,
		sys:     s,
		tracker: pelt.NewTracker(s.Cfg.HalfLifeMs),
		cpu:     -1,
		pinned:  -1,
		lastCPU: -1,
		wakeDst: -1,
	}
	t.wakeFn = func(at event.Time) { s.onDeepWake(t, at) }
	s.tasks = append(s.tasks, t)
	return t
}

// Start begins the scheduler tick loop.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	s.tickEv = s.Eng.After(s.tick, s.tickFn)
}

// TinyPerfScale is the per-clock efficiency of a tiny core relative to a
// little core (narrower in-order pipeline).
const TinyPerfScale = 0.65

// rate returns a cpu's execution rate in cycles per nanosecond for a task.
func (s *System) rate(c *cpu, t *Task) float64 {
	f := float64(s.SoC.ClusterOf(c.id).CurMHz)
	sp := 1.0
	switch c.typ {
	case platform.Big:
		sp = t.Speedup
	case platform.Tiny:
		sp = TinyPerfScale
	}
	return f * sp / 1000.0 // MHz·1e6 cycles/s = MHz/1000 cycles/ns
}

// sync advances the head task of cpu c to the current time.
func (s *System) sync(c *cpu, now event.Time) {
	dt := now - c.lastSync
	c.lastSync = now
	if dt <= 0 {
		return
	}
	if len(c.queue) == 0 {
		if s.Cfg.DeepIdleAfter > 0 {
			deepStart := c.idleSince + s.Cfg.DeepIdleAfter
			if now > deepStart {
				from := deepStart
				if now-dt > from {
					from = now - dt
				}
				c.deepCum += now - from
			}
		}
		return
	}
	head := c.queue[0]
	done := float64(dt) * s.rate(c, head)
	if done > head.remaining {
		// The completion event fires within 1 ns of the true finish time;
		// clamp so executed work exactly matches pushed work.
		done = head.remaining
	}
	head.remaining -= done
	head.TotalWork += done
	head.ranNs += dt
	if s.EnergyModel != nil {
		cl := s.SoC.ClusterOf(c.id)
		head.EnergyMJ += dt.Seconds() * s.EnergyModel(c.typ, cl.CurMHz)
	}
	switch c.typ {
	case platform.Big:
		head.BigRanNs += dt
	case platform.Tiny:
		head.TinyRanNs += dt
	default:
		head.LittleRanNs += dt
	}
	c.busyCum += dt
	if s.Prof != nil {
		s.Prof.OnRun(head.ID, head.Name, c.id, c.typ, s.SoC.ClusterOf(c.id).CurMHz, dt, now)
		// Queue membership is constant between syncs, so the same dt is
		// exact runnable-wait time for everyone behind the head.
		for _, w := range c.queue[1:] {
			s.Prof.OnWait(w.ID, w.Name, dt)
		}
	}
}

// SyncAll advances every cpu to now; callers observing busy time or task
// progress (governor, metrics) should sync first.
func (s *System) SyncAll(now event.Time) {
	for _, c := range s.cpus {
		s.sync(c, now)
	}
}

// BusyNs returns cumulative busy time of core id (valid after SyncAll).
func (s *System) BusyNs(id int) event.Time { return s.cpus[id].busyCum }

// DeepIdleNs returns cumulative deep-idle time of core id (valid after
// SyncAll); always zero when deep idle is disabled.
func (s *System) DeepIdleNs(id int) event.Time { return s.cpus[id].deepCum }

// QueueLen returns the run-queue length of core id.
func (s *System) QueueLen(id int) int { return len(s.cpus[id].queue) }

// dispatch (re)programs the completion event for cpu c's head task.
func (s *System) dispatch(c *cpu, now event.Time) {
	c.completion.Cancel()
	c.completion = event.Handle{}
	if len(c.queue) == 0 {
		return
	}
	head := c.queue[0]
	head.state = Running
	for i := 1; i < len(c.queue); i++ {
		c.queue[i].state = Runnable
	}
	r := s.rate(c, head)
	if r <= 0 {
		return
	}
	ns := event.Time(head.remaining/r) + 1
	c.completion = s.Eng.At(now+ns, c.completeFn)
}

// onCompletion handles the head task finishing its current segment.
func (s *System) onCompletion(c *cpu, now event.Time) {
	s.sync(c, now)
	if len(c.queue) == 0 {
		return
	}
	head := c.queue[0]
	if head.remaining > 0.5 {
		// Frequency changed since scheduling; not actually done.
		s.dispatch(c, now)
		return
	}
	head.remaining = 0
	head.SegmentsDone++
	if head.fifoHead < len(head.fifo) {
		head.remaining = head.fifo[head.fifoHead]
		head.fifoHead++
		if head.fifoHead == len(head.fifo) {
			head.fifo = head.fifo[:0]
			head.fifoHead = 0
		}
		if head.OnSegment != nil {
			head.OnSegment(now)
		}
		s.dispatch(c, now)
		return
	}
	// Drained: go to sleep; fold the current load into the burst footprint.
	// Shift in place (not queue[1:]) so the backing array's capacity is kept
	// for reuse; queues are a handful of tasks, so the copy is trivial.
	copy(c.queue, c.queue[1:])
	c.queue[len(c.queue)-1] = nil
	c.queue = c.queue[:len(c.queue)-1]
	c.sliceUsed = 0
	head.state = Sleeping
	head.cpu = -1
	head.sleepLoad = 0.5*head.sleepLoad + 0.5*head.tracker.LoadF()
	if head.OnSegment != nil {
		head.OnSegment(now)
	}
	if head.OnIdle != nil {
		head.OnIdle(now)
	}
	if len(c.queue) == 0 {
		c.idleSince = now
	}
	s.dispatch(c, now)
}

// Push enqueues work (in little-core cycles) for a task, waking it if
// asleep. Zero or negative work is ignored.
func (s *System) Push(t *Task, cycles float64) {
	if cycles <= 0 {
		return
	}
	now := s.Eng.Now()
	if t.state != Sleeping {
		t.fifo = append(t.fifo, cycles)
		return
	}
	t.remaining = cycles
	t.wokeAt = now
	if s.Prof != nil {
		s.Prof.OnWake(t.ID, t.Name, now)
	}
	c := s.wakeCPU(t)
	prevCPU := t.lastCPU // placement input, captured before it is overwritten
	t.cpu = c.id
	t.lastCPU = c.id
	s.sync(c, now)
	deepWake := s.Cfg.DeepIdleAfter > 0 && len(c.queue) == 0 && now-c.idleSince > s.Cfg.DeepIdleAfter
	if s.Tel != nil {
		reason := ""
		if deepWake {
			reason = telemetry.ReasonDeepIdle
		}
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindWake,
			Task: t.ID, TaskName: t.Name,
			Core: c.id, FromCore: -1, Cluster: s.SoC.Cores[c.id].Cluster,
			Reason: reason, Value: float64(t.Load()),
		})
	}
	if s.Xray != nil {
		reason := ""
		if deepWake {
			reason = telemetry.ReasonDeepIdle
		}
		s.xrayWake(t, c, prevCPU, now, reason)
	}
	if deepWake {
		// The core was in deep idle: the task pays the exit latency before
		// it can be enqueued (cpuidle wake-up cost).
		t.state = Waking
		t.wakeDst = c.id
		t.wakeEv = s.Eng.At(now+s.Cfg.DeepIdleWake, t.wakeFn)
		return
	}
	t.state = Runnable
	c.queue = append(c.queue, t)
	if len(c.queue) == 1 {
		s.dispatch(c, now)
	}
}

// onDeepWake completes a deep-idle wake after the exit latency: the task is
// enqueued on the core chosen at Push time (t.wakeDst), unless that core was
// hotplugged offline while the task paid the latency (offlining only evicts
// queued tasks, not Waking ones), in which case it is re-placed; as with
// eviction, hotplug breaks affinity to the now-offline core.
func (s *System) onDeepWake(t *Task, at event.Time) {
	dst := s.cpus[t.wakeDst]
	if !s.SoC.Cores[dst.id].Online {
		if t.pinned >= 0 && !s.SoC.Cores[t.pinned].Online {
			t.pinned = -1
		}
		dst = s.wakeCPU(t)
		prevCPU := t.lastCPU
		t.cpu = dst.id
		t.lastCPU = dst.id
		if s.Xray != nil {
			s.xrayWake(t, dst, prevCPU, at, telemetry.ReasonHotplug)
		}
	}
	s.sync(dst, at)
	t.state = Runnable
	dst.queue = append(dst.queue, t)
	if len(dst.queue) == 1 {
		s.dispatch(dst, at)
	}
}

// wakeCPU implements HMP wake placement with the same hysteresis as the
// migration rules: a task last on a little core moves up only when its load
// exceeds the up-threshold, while a task last on a big core stays
// big-preferred until its load falls below the down-threshold. Within a
// cluster pick an idle core (preferring the task's previous one), else the
// shortest queue.
func (s *System) wakeCPU(t *Task) *cpu {
	if t.pinned >= 0 {
		if !s.SoC.Cores[t.pinned].Online {
			panic(fmt.Sprintf("sched: task %d pinned to offline core %d", t.ID, t.pinned))
		}
		return s.cpus[t.pinned]
	}
	if s.WakeHook != nil {
		if c := s.pickCPU(s.WakeHook(t), t); c != nil {
			return c
		}
		// Requested type offline: fall through to the default placement.
	}
	// Tier hysteresis, mirroring the migration rules: move one tier up when
	// above the up-threshold, one tier down below the down-threshold,
	// otherwise stay on the last tier. Fresh tasks start on the little
	// tier. The tiny tier additionally requires a small burst footprint.
	tier := platform.Little.Tier()
	if t.lastCPU >= 0 {
		tier = s.cpus[t.lastCPU].typ.Tier()
	}
	switch {
	case t.Load() > s.Cfg.UpThreshold:
		tier++
	case t.Load() < s.Cfg.DownThreshold:
		tier--
	}
	if tier > 2 {
		tier = 2
	}
	if tier < 1 && t.sleepLoad >= float64(s.Cfg.TinyWakeLoad) {
		tier = 1
	}
	if tier < 0 {
		tier = 0
	}
	// Try the preferred tier, then walk outward (up first: capacity beats
	// efficiency when the preferred cluster is offline).
	for _, cand := range []int{tier, tier + 1, tier + 2, tier - 1, tier - 2} {
		if cand < 0 || cand > 2 {
			continue
		}
		if c := s.pickCPU(platform.TypeForTier(cand), t); c != nil {
			return c
		}
	}
	panic("sched: no online cores")
}

// pickCPU selects the wake/migration destination among online cores of typ:
// the task's idle previous core if eligible (cache affinity), else the first
// shortest queue in core-ID order. It iterates the cpu array directly rather
// than materializing an online-ID slice — this runs on every wake and every
// migration check, and must not allocate.
func (s *System) pickCPU(typ platform.CoreType, t *Task) *cpu {
	// Idle previous CPU wins (cache affinity).
	if t.lastCPU >= 0 {
		if c := s.cpus[t.lastCPU]; c.typ == typ && s.SoC.Cores[c.id].Online && len(c.queue) == 0 {
			return c
		}
	}
	var best *cpu
	for _, c := range s.cpus {
		if c.typ != typ || !s.SoC.Cores[c.id].Online {
			continue
		}
		if best == nil || len(c.queue) < len(best.queue) {
			best = c
		}
	}
	return best
}

// onTick is the scheduler tick: accounting, load update, HMP migration,
// intra-cluster balancing, and round-robin rotation.
func (s *System) onTick(now event.Time) {
	s.SyncAll(now)
	s.updateLoads(now)
	if s.MigrateHook != nil {
		s.MigrateHook(now)
	} else {
		s.hmpMigrate(now)
	}
	s.balance(now)
	s.rotate(now)
	for _, c := range s.cpus {
		s.dispatch(c, now)
	}
	for _, fn := range s.tickSubs {
		fn(now)
	}
	s.tickEv = s.Eng.After(s.tick, s.tickFn)
}

// OnTick subscribes fn to the end of every scheduler tick, where the state is
// consistent: every core is synced and this tick's migrations and dispatches
// are done. Subscribers run in the order they subscribed, for the life of the
// system. Observers (trace, check, delta) use it to read state; they must not
// change it.
func (s *System) OnTick(fn func(now event.Time)) {
	s.tickSubs = append(s.tickSubs, fn)
}

// updateLoads feeds each task's tracker with its runnable fraction of the
// tick, scaled by current/max frequency of the cluster it sits on. A task
// asleep for the whole tick contributes nothing but still decays — in the
// kernel's load tracking, slept periods are decayed into the history when
// the task next wakes, so a bursty task's load converges to its duty cycle
// rather than its burst intensity.
func (s *System) updateLoads(now event.Time) {
	tickStart := now - s.tick
	for _, t := range s.tasks {
		var activeNs event.Time
		switch t.state {
		case Sleeping:
			activeNs = t.ranNs
		default:
			from := tickStart
			if t.wokeAt > from {
				from = t.wokeAt
			}
			activeNs = now - from
			if activeNs > s.tick {
				activeNs = s.tick
			}
		}
		if activeNs < 0 {
			activeNs = 0
		}
		frac := float64(activeNs) / float64(s.tick)
		fs := 1.0
		if t.lastCPU >= 0 {
			cl := s.SoC.ClusterOf(t.lastCPU)
			fs = float64(cl.CurMHz) / float64(cl.MaxMHz())
		}
		t.tracker.Update(frac, fs)
		t.ranNs = 0
	}
}

// hmpMigrate applies Algorithm 1's up/down migration rules, generalized to
// one-tier-at-a-time moves across tiny/little/big clusters.
func (s *System) hmpMigrate(now event.Time) {
	for _, t := range s.tasks {
		if t.state == Sleeping || t.state == Waking || t.pinned >= 0 {
			continue
		}
		c := s.cpus[t.cpu]
		tier := c.typ.Tier()
		switch {
		case t.Load() > s.Cfg.UpThreshold && tier < 2:
			if dst := s.pickCPU(platform.TypeForTier(tier+1), t); dst != nil {
				s.migrate(t, dst, now, telemetry.ReasonUpThreshold)
			}
		case t.Load() < s.Cfg.DownThreshold && tier > 0:
			if tier == 1 && t.sleepLoad >= float64(s.Cfg.TinyWakeLoad) {
				continue // burst footprint too large for the tiny tier
			}
			if dst := s.pickCPU(platform.TypeForTier(tier-1), t); dst != nil {
				s.migrate(t, dst, now, telemetry.ReasonDownThreshold)
			}
		}
	}
}

func (s *System) migrate(t *Task, dst *cpu, now event.Time, reason string) {
	src := s.cpus[t.cpu]
	if src == dst {
		return
	}
	s.sync(src, now)
	s.sync(dst, now)
	s.removeFromQueue(src, t)
	t.cpu = dst.id
	t.lastCPU = dst.id
	t.Migrations++
	dst.queue = append(dst.queue, t)
	if s.Prof != nil {
		s.Prof.OnMigration(t.ID, t.Name, src.typ, dst.typ, reason)
	}
	if s.Tel != nil {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindMigration,
			Task: t.ID, TaskName: t.Name,
			Core: dst.id, FromCore: src.id, Cluster: s.SoC.Cores[dst.id].Cluster,
			Reason: reason, Value: float64(t.Load()),
		})
	}
	if s.Xray != nil {
		s.xrayMigrate(t, src, dst, now, reason)
	}
	s.dispatch(src, now)
	s.dispatch(dst, now)
}

func (s *System) removeFromQueue(c *cpu, t *Task) {
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			if i == 0 {
				c.sliceUsed = 0
			}
			return
		}
	}
	panic(fmt.Sprintf("sched: task %d not on cpu %d", t.ID, c.id))
}

// balance performs intra-cluster load balancing: idle cores pull a waiting
// task from the most loaded core of their own cluster (traditional load
// balancing across same-type cores, §IV-B).
func (s *System) balance(now event.Time) {
	// Fast path: nothing to pull anywhere. On interactive workloads most
	// ticks have no queue deeper than one, and this scan is a fraction of
	// the full idle-core x busiest-core product below.
	overloaded := false
	for _, c := range s.cpus {
		if len(c.queue) > 1 {
			overloaded = true
			break
		}
	}
	if !overloaded {
		return
	}
	for _, c := range s.cpus {
		if !s.SoC.Cores[c.id].Online || len(c.queue) != 0 {
			continue
		}
		var busiest *cpu
		for _, o := range s.cpus {
			if o.typ != c.typ || o == c || !s.SoC.Cores[o.id].Online {
				continue
			}
			if len(o.queue) > 1 && (busiest == nil || len(o.queue) > len(busiest.queue)) {
				busiest = o
			}
		}
		if busiest == nil {
			continue
		}
		// Pull the last waiting unpinned task.
		var t *Task
		for i := len(busiest.queue) - 1; i >= 1; i-- {
			if busiest.queue[i].pinned < 0 {
				t = busiest.queue[i]
				break
			}
		}
		if t == nil {
			continue
		}
		s.migrate(t, c, now, telemetry.ReasonBalance)
		t.Migrations-- // intra-cluster moves are not HMP migrations
	}
}

// rotate implements round-robin: after a full tick of execution with other
// tasks waiting, the head yields.
func (s *System) rotate(now event.Time) {
	for _, c := range s.cpus {
		if len(c.queue) < 2 {
			c.sliceUsed = 0
			continue
		}
		c.sliceUsed++
		if c.sliceUsed >= 1 { // 1-tick quantum
			head := c.queue[0]
			copy(c.queue, c.queue[1:])
			c.queue[len(c.queue)-1] = head
			c.sliceUsed = 0
			if s.Tel != nil {
				s.Tel.Emit(telemetry.Event{
					At: now, Kind: telemetry.KindPreempt,
					Task: head.ID, TaskName: head.Name,
					Core: c.id, FromCore: -1, Cluster: s.SoC.Cores[c.id].Cluster,
					Reason: telemetry.ReasonSlice,
				})
			}
		}
	}
}

// MoveToType migrates a non-sleeping, unpinned task to the least-loaded
// online core of the given type; it is a no-op if the task is already
// there, asleep, pinned, or the type has no online cores. Intended for
// MigrateHook policies.
func (s *System) MoveToType(t *Task, typ platform.CoreType) {
	if t.state == Sleeping || t.state == Waking || t.pinned >= 0 {
		return
	}
	if s.cpus[t.cpu].typ == typ {
		return
	}
	if dst := s.pickCPU(typ, t); dst != nil {
		s.migrate(t, dst, s.Eng.Now(), telemetry.ReasonPolicy)
	}
}

// BurstFootprint returns the task's EWMA load at sleep transitions — the
// signal policies use to classify small background work.
func (t *Task) BurstFootprint() float64 { return t.sleepLoad }

// OnCPUType returns the core type the task currently sits on, or Little for
// sleeping tasks (their wake placement will decide).
func (s *System) OnCPUType(t *Task) platform.CoreType {
	if t.cpu < 0 {
		return platform.Little
	}
	return s.cpus[t.cpu].typ
}

// SetCoreOnline hotplugs a core at runtime: offlining first evicts every
// queued task to another online core (breaking affinity if necessary, as
// the kernel does), onlining simply re-enables placement. It returns the
// platform-constraint error, if any.
func (s *System) SetCoreOnline(id int, online bool) error {
	now := s.Eng.Now()
	c := s.cpus[id]
	s.sync(c, now)
	if online {
		if err := s.SoC.SetOnline(id, true); err != nil {
			return err
		}
		c.idleSince = now
		if s.Tel != nil {
			s.Tel.Emit(telemetry.Event{
				At: now, Kind: telemetry.KindHotplug,
				Task: -1, Core: id, FromCore: -1, Cluster: s.SoC.Cores[id].Cluster,
				Reason: telemetry.ReasonOnline,
			})
		}
		if s.Xray != nil {
			s.xrayHotplug(id, true, 0, now, telemetry.ReasonOnline)
		}
		return nil
	}
	if err := s.SoC.SetOnline(id, false); err != nil {
		return err
	}
	if s.Tel != nil {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindHotplug,
			Task: -1, Core: id, FromCore: -1, Cluster: s.SoC.Cores[id].Cluster,
			Reason: telemetry.ReasonOffline,
		})
	}
	if s.Xray != nil {
		s.xrayHotplug(id, false, len(c.queue), now, telemetry.ReasonOffline)
	}
	// Evict the queue: prefer a same-type online core, else any online core.
	for len(c.queue) > 0 {
		t := c.queue[0]
		dst := s.pickCPU(c.typ, t)
		if dst == nil || dst == c {
			for _, cand := range s.cpus {
				if cand != c && s.SoC.Cores[cand.id].Online {
					dst = cand
					break
				}
			}
		}
		if dst == nil || dst == c {
			// Nothing else online (impossible given the little-core
			// constraint, but fail safe): bring the core back.
			_ = s.SoC.SetOnline(id, true)
			return nil
		}
		t.pinned = -1 // hotplug breaks affinity
		s.migrate(t, dst, now, telemetry.ReasonHotplug)
		t.Migrations--
	}
	s.dispatch(c, now)
	return nil
}

// SetClusterFreq changes a cluster's frequency (used by governors),
// re-synchronizing and re-dispatching affected cores. Returns the frequency
// actually set (clamped to the table).
func (s *System) SetClusterFreq(clusterID, mhz int) int {
	now := s.Eng.Now()
	cl := &s.SoC.Clusters[clusterID]
	prev := cl.CurMHz
	for _, id := range cl.CoreIDs {
		s.sync(s.cpus[id], now)
	}
	got := s.SoC.SetFreq(clusterID, mhz)
	if s.Tel != nil && got != prev {
		s.Tel.Emit(telemetry.Event{
			At: now, Kind: telemetry.KindFreq,
			Task: -1, Core: -1, FromCore: -1, Cluster: clusterID,
			PrevMHz: prev, MHz: got,
		})
	}
	for _, id := range cl.CoreIDs {
		s.dispatch(s.cpus[id], now)
	}
	return got
}

// CoreBusyFraction returns core id's busy fraction between two cumulative
// busy readings over the interval; a convenience for governors/metrics.
func CoreBusyFraction(prevBusy, curBusy, interval event.Time) float64 {
	if interval <= 0 {
		return 0
	}
	f := float64(curBusy-prevBusy) / float64(interval)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
