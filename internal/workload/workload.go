// Package workload provides the demand-generation primitives from which the
// twelve mobile application models (package apps) are composed: periodic
// frame loops (games, video), Poisson-triggered bursts (user input),
// continuous CPU hogs (encoding), and multi-stage interaction pipelines with
// parallel fan-out (page loads, photo filters), mirroring the burst-on-touch
// and steady-frame CPU load patterns §II describes.
//
// All randomness flows through one seeded source per run, so every
// simulation is reproducible.
package workload

import (
	"math/rand"

	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
)

// Ctx bundles what generators need to drive a simulation.
type Ctx struct {
	Eng      *event.Engine
	Sys      *sched.System
	Rng      *rand.Rand
	Duration event.Time

	FPS *metrics.FPSTracker
	Lat *metrics.LatencyTracker

	// Rec, when non-nil, records (or replays) the workload's interaction
	// with the simulator for whole-run snapshot/restore; see record.go.
	// Plain runs leave it nil and pay nothing, and after a Resched that
	// keeps no log it acts as a nil one.
	Rec *Recorder
}

// At schedules fn at absolute time at. Workload code must schedule through
// Ctx.At/Ctx.After (not ctx.Eng directly) so snapshot-enabled runs can log
// and replay the firing; with no recorder it is exactly ctx.Eng.At.
func (c *Ctx) At(at event.Time, fn func(now event.Time)) {
	if c.Rec == nil {
		c.Eng.At(at, fn)
		return
	}
	c.Rec.schedule(c.Eng, at, fn)
}

// After schedules fn to run d after the current time, via Ctx.At.
func (c *Ctx) After(d event.Time, fn func(now event.Time)) { c.At(c.Eng.Now()+d, fn) }

// Mc is one million cycles — the natural unit for segment sizes (a little
// core at 1.3 GHz executes 1300 Mc per second).
const Mc = 1e6

// Thread wraps a scheduler task with per-segment completion callbacks so
// pipelines can sequence work across threads.
type Thread struct {
	Task *sched.Task
	sys  *sched.System
	rec  *Recorder
	idx  int // creation index under rec (RecSeg target)
	// cbs[cbHead:] are the pending per-segment callbacks. The head index
	// (rather than re-slicing cbs[1:]) keeps the backing array's front
	// capacity, so steady push/pop cycles reuse one allocation.
	cbs    []func(now event.Time)
	cbHead int
}

// NewThread creates a named thread with the given big-core speedup.
func NewThread(ctx *Ctx, name string, speedup float64) *Thread {
	th := &Thread{Task: ctx.Sys.NewTask(name, speedup), sys: ctx.Sys, rec: ctx.Rec}
	if th.rec != nil {
		th.idx = th.rec.registerThread(th)
	}
	th.Task.OnSegment = func(now event.Time) {
		if th.rec != nil {
			th.rec.noteSeg(th.idx, now)
		}
		if th.cbHead >= len(th.cbs) {
			return
		}
		cb := th.cbs[th.cbHead]
		th.cbs[th.cbHead] = nil // release the closure for GC
		th.cbHead++
		if th.cbHead == len(th.cbs) {
			th.cbs = th.cbs[:0]
			th.cbHead = 0
		}
		if cb != nil {
			cb(now)
		}
	}
	return th
}

// Push enqueues cycles of work; done (may be nil) fires when this specific
// segment completes.
func (th *Thread) Push(cycles float64, done func(now event.Time)) {
	if cycles <= 0 {
		if done != nil {
			done(th.sys.Eng.Now())
		}
		return
	}
	th.cbs = append(th.cbs, done)
	if th.rec.replaying() {
		// The scheduler does not run during replay; the segment's completion
		// is driven from the log (a RecSeg record pops the callback).
		return
	}
	th.sys.Push(th.Task, cycles)
}

// Jitter returns mean scaled by a uniform factor in [1-cv, 1+cv], never
// below 10% of mean. cv = 0 returns mean unchanged.
func (c *Ctx) Jitter(mean, cv float64) float64 {
	if cv <= 0 {
		return mean
	}
	v := mean * (1 + cv*(2*c.Rng.Float64()-1))
	if v < 0.1*mean {
		v = 0.1 * mean
	}
	return v
}

// Exp returns an exponentially distributed duration with the given mean
// (Poisson inter-arrival), clamped to at least 100 µs.
func (c *Ctx) Exp(mean event.Time) event.Time {
	d := event.Time(float64(mean) * c.Rng.ExpFloat64())
	if d < 100*event.Microsecond {
		d = 100 * event.Microsecond
	}
	return d
}

// HeavyTail returns mean-centered work with an occasional heavy value:
// with probability p the result is mult x mean (a "hard" page, frame, or
// file), otherwise jittered around mean. Used to reproduce the occasional
// load spikes that pull in a big core.
func (c *Ctx) HeavyTail(mean, cv, p, mult float64) float64 {
	if c.Rng.Float64() < p {
		return c.Jitter(mean*mult, cv/2)
	}
	return c.Jitter(mean, cv)
}

// PeriodicConfig drives a frame-style loop.
type PeriodicConfig struct {
	Period event.Time
	// Work per activation in cycles (mean) with uniform CV jitter.
	Work float64
	CV   float64
	// OnDone fires on each completed activation (e.g. FPS accounting).
	OnDone func(now event.Time)
}

// Periodic runs cfg on th from now until ctx.Duration: every Period, push
// one activation's work.
func Periodic(ctx *Ctx, th *Thread, cfg PeriodicConfig) {
	var tick func(now event.Time)
	tick = func(now event.Time) {
		if now >= ctx.Duration {
			return
		}
		th.Push(ctx.Jitter(cfg.Work, cfg.CV), cfg.OnDone)
		ctx.At(now+cfg.Period, tick)
	}
	ctx.After(0, tick)
}

// Continuous keeps th 100% busy with segment-sized chunks until ctx.Duration
// (an encoder worker or CPU hog).
func Continuous(ctx *Ctx, th *Thread, segment float64) {
	var refill func(now event.Time)
	refill = func(now event.Time) {
		if now >= ctx.Duration {
			return
		}
		th.Push(ctx.Jitter(segment, 0.1), refill)
	}
	refill(0)
}

// PoissonBursts pushes exponentially spaced bursts of work onto th —
// background activity such as network callbacks or GC.
func PoissonBursts(ctx *Ctx, th *Thread, meanInterval event.Time, work, cv float64) {
	var arrive func(now event.Time)
	arrive = func(now event.Time) {
		if now >= ctx.Duration {
			return
		}
		th.Push(ctx.Jitter(work, cv), nil)
		ctx.At(now+ctx.Exp(meanInterval), arrive)
	}
	ctx.After(ctx.Exp(meanInterval), arrive)
}

// Stage is one step of an interaction pipeline: Work cycles pushed to every
// thread in Threads in parallel; the stage completes when all finish.
type Stage struct {
	Threads []*Thread
	Work    float64
	CV      float64
	// HeavyP/HeavyMult give the stage an occasional heavy activation.
	HeavyP    float64
	HeavyMult float64
	// PostDelay is non-CPU time after the stage completes before the next
	// stage starts — disk and network waits, GPU rendering, vsync. It does
	// not shrink on faster cores, which (together with the governor's
	// utilization targeting) is why the paper measures <30% latency gain
	// from big cores on mobile apps despite SPEC speedups of 2-4.5x.
	PostDelay event.Time
}

// pipeline runs one stage table at a time: the running stage's index and its
// count of unfinished threads live here, and the callbacks that advance it
// are bound once, so running a stage allocates nothing.
type pipeline struct {
	ctx       *Ctx
	stages    []Stage
	done      func(now event.Time)
	stage     int // index of the running stage
	remaining int // threads of the running stage still working

	threadDone func(now event.Time) // onThreadDone, bound once
	resume     func(now event.Time) // onResume, bound once
}

func newPipeline(ctx *Ctx) *pipeline {
	p := &pipeline{ctx: ctx}
	p.threadDone, p.resume = p.onThreadDone, p.onResume
	return p
}

// start runs stages from the first; the previous run must have finished.
func (p *pipeline) start(stages []Stage, done func(now event.Time)) {
	p.stages, p.done = stages, done
	p.runFrom(0, p.ctx.Eng.Now())
}

func (p *pipeline) runFrom(i int, now event.Time) {
	p.stage = i
	if i >= len(p.stages) {
		if p.done != nil {
			p.done(now)
		}
		return
	}
	st := &p.stages[i]
	if len(st.Threads) == 0 {
		p.next(now)
		return
	}
	p.remaining = len(st.Threads)
	for _, th := range st.Threads {
		w := st.Work
		if st.HeavyP > 0 {
			w = p.ctx.HeavyTail(st.Work, st.CV, st.HeavyP, st.HeavyMult)
		} else {
			w = p.ctx.Jitter(st.Work, st.CV)
		}
		th.Push(w, p.threadDone)
	}
}

func (p *pipeline) onThreadDone(fin event.Time) {
	p.remaining--
	if p.remaining == 0 {
		p.next(fin)
	}
}

// next ends the running stage at fin: the following stage starts after the
// stage's PostDelay, or at once.
func (p *pipeline) next(fin event.Time) {
	if d := p.stages[p.stage].PostDelay; d > 0 {
		p.ctx.At(fin+d, p.resume)
		return
	}
	p.runFrom(p.stage+1, fin)
}

func (p *pipeline) onResume(at event.Time) { p.runFrom(p.stage+1, at) }

// InteractionConfig drives InteractionLoop.
type InteractionConfig struct {
	// Think is the mean user think time between interactions, with ThinkCV
	// uniform jitter.
	Think   event.Time
	ThinkCV float64
	// Stages returns the interaction's stage table. It is called once per
	// interaction, and each thread's work is drawn afresh from the table
	// every time, so it may return the same table on every call.
	Stages func() []Stage
	// Boost lists threads whose load is boosted to BoostLoad at each
	// interaction start — Android's input boost, which makes the responding
	// threads immediately eligible for a big core. The boost is re-applied
	// every 25 ms for BoostWindow (default 120 ms), matching the input
	// booster's hold window, so threads woken by later pipeline stages are
	// still covered.
	Boost       []*Thread
	BoostLoad   int
	BoostWindow event.Time
	// Silent excludes this loop's interactions from latency accounting
	// (auxiliary activity such as scrolling between measured page loads).
	Silent bool
}

// InteractionLoop models a user performing actions separated by think time:
// each interaction runs the stage pipeline produced by cfg.Stages and its
// start-to-finish latency is recorded in ctx.Lat.
func InteractionLoop(ctx *Ctx, cfg InteractionConfig) {
	l := &interactionLoop{ctx: ctx, cfg: cfg, pipe: newPipeline(ctx)}
	if l.cfg.BoostLoad == 0 {
		l.cfg.BoostLoad = 800
	}
	if l.cfg.BoostWindow == 0 {
		l.cfg.BoostWindow = 120 * event.Millisecond
	}
	l.nextFn, l.boostFn, l.doneFn = l.next, l.boost, l.done
	ctx.After(event.Time(ctx.Jitter(float64(cfg.Think/2), 0.5)), l.nextFn)
}

// interactionLoop is one InteractionLoop. Its interactions run one at a
// time, so they share one pipeline and one set of callbacks, bound once.
type interactionLoop struct {
	ctx   *Ctx
	cfg   InteractionConfig
	pipe  *pipeline
	start event.Time // when the running interaction began

	nextFn, boostFn, doneFn func(now event.Time)
}

func (l *interactionLoop) next(now event.Time) {
	if now >= l.ctx.Duration {
		return
	}
	for off := event.Time(0); off <= l.cfg.BoostWindow; off += 25 * event.Millisecond {
		l.ctx.At(now+off, l.boostFn)
	}
	l.start = now
	l.pipe.start(l.cfg.Stages(), l.doneFn)
}

func (l *interactionLoop) boost(event.Time) {
	if l.ctx.Rec.replaying() {
		// Boosts mutate live scheduler state; during replay the scheduler
		// is restored from the snapshot instead.
		return
	}
	for _, th := range l.cfg.Boost {
		th.Task.Boost(l.cfg.BoostLoad)
	}
}

func (l *interactionLoop) done(fin event.Time) {
	if l.ctx.Lat != nil && !l.cfg.Silent {
		l.ctx.Lat.Record(fin - l.start)
	}
	think := event.Time(l.ctx.Jitter(float64(l.cfg.Think), l.cfg.ThinkCV))
	l.ctx.At(fin+think, l.nextFn)
}

// TouchKicks models the Android input booster: while the user is touching
// the screen (Poisson events with the given mean gap), the little cluster's
// frequency is kicked to maximum. At full frequency a heavily loaded
// thread's frequency-invariant load can finally cross the HMP up-threshold,
// so sustained heavy scenes migrate to a big core — while light workloads
// just scale back down at the next governor sample.
func TouchKicks(ctx *Ctx, meanGap event.Time) {
	soc := ctx.Sys.SoC
	var touch func(now event.Time)
	touch = func(now event.Time) {
		if now >= ctx.Duration {
			return
		}
		if !ctx.Rec.replaying() {
			// Frequency kicks act on live DVFS state; during replay that
			// state is restored from the snapshot. The RNG draw below still
			// runs, keeping the replayed stream in lockstep.
			for ci := range soc.Clusters {
				cl := &soc.Clusters[ci]
				floor := cl.MaxMHz()
				if cl.Type == platform.Big {
					floor = 1500 // the booster's big-cluster frequency floor
				}
				if cl.CurMHz < floor && soc.OnlineCount(cl.Type) > 0 {
					ctx.Sys.SetClusterFreq(ci, floor)
				}
			}
		}
		ctx.At(now+ctx.Exp(meanGap), touch)
	}
	ctx.After(ctx.Exp(meanGap), touch)
}

// CyclesForDuty returns the work in cycles that occupies the given duty
// fraction of a core at mhz for one period — used by app models to size
// frame work against frame budgets.
func CyclesForDuty(duty float64, mhz int, period event.Time) float64 {
	return duty * float64(mhz) / 1000 * float64(period)
}
