package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"biglittle/internal/altsched"
	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/snapshot"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
)

// gov is what every governor constructor yields: a startable policy whose
// dynamic state can be captured and restored around a fork.
type gov interface {
	Start()
	Snapshot() governor.Snap
	Restore(*governor.Snap) error
}

// Sim is one assembled simulation with explicit control over its clock: run
// it forward in steps with RunTo, capture a whole-simulation snapshot
// between steps, and Finish to collect the Result. Run is assembly plus
// run-to-end; NewSim/Resume expose the stepping for snapshot/fork
// (DESIGN.md §9), and Assemble/Build let a session build one app after
// another on the same platform.
type Sim struct {
	cfg      Config
	eng      *event.Engine
	soc      *platform.SoC
	sys      *sched.System
	eas      *altsched.EAS
	gov      gov
	sampler  *metrics.Sampler
	therm    *thermal.Model
	rng      *rand.Rand         // the run's one random source, shared by every Build
	rec      *workload.Recorder // nil unless recording or replaying
	ctx      *workload.Ctx      // the workload Build made last
	finished bool
}

// Assemble builds cfg's platform, scheduler, policies and observers, with no
// workload yet: call Build for each app to run on it. cfg.App is not used.
func Assemble(cfg Config) *Sim {
	return assemble(cfg.Normalized(), nil, nil)
}

// newSim assembles cfg and builds its app over the whole run. rec, when
// non-nil, interposes workload recording for snapshot capture (or replay,
// when resuming). rng, when non-nil, is the run's random source, already
// seeded with cfg.Seed; nil seeds a fresh one.
func newSim(cfg Config, rec *workload.Recorder, rng *rand.Rand) *Sim {
	s := assemble(cfg, rec, rng)
	s.Build(cfg.App, cfg.Duration)
	return s
}

// idleRands is the free list of random sources whose runs have finished.
// Seeding a source resets all of it, the read position included, so a
// reused source draws exactly what a fresh one would. Only Run hands one
// back, because its Sim never escapes. It keeps at most GOMAXPROCS sources
// (about 5 KB each), and is a plain list rather than a sync.Pool because a
// GC empties a pool.
var (
	idleRandMu sync.Mutex
	idleRands  []*rand.Rand
)

// seededRand returns a source seeded with seed, reusing an idle one if any.
func seededRand(seed int64) *rand.Rand {
	idleRandMu.Lock()
	n := len(idleRands)
	if n == 0 {
		idleRandMu.Unlock()
		return rand.New(rand.NewSource(seed))
	}
	rng := idleRands[n-1]
	idleRands[n-1] = nil
	idleRands = idleRands[:n-1]
	idleRandMu.Unlock()
	rng.Seed(seed)
	return rng
}

// releaseRand returns a finished run's source to the free list.
func releaseRand(rng *rand.Rand) {
	idleRandMu.Lock()
	defer idleRandMu.Unlock()
	if len(idleRands) < runtime.GOMAXPROCS(0) {
		idleRands = append(idleRands, rng)
	}
}

// assemble builds the simulation in a fixed order, which fixes the order of
// events due at the same instant: platform, scheduler, scheduler policy,
// governor, metrics sampler, auditor, thermal model, digest recorder, then
// OnSystem. The observers attach along the way, as Observers documents.
func assemble(cfg Config, rec *workload.Recorder, rng *rand.Rand) *Sim {
	eng := event.New()
	var soc *platform.SoC
	var err error
	switch {
	case cfg.Platform != "":
		soc, err = platform.ByName(cfg.Platform)
	case cfg.Cores.Tiny > 0:
		soc = platform.Exynos5422Tiny()
	default:
		soc = platform.Exynos5422()
	}
	if err == nil {
		err = cfg.Cores.Apply(soc)
	}
	if err != nil {
		panic(err) // configurations are validated values; misuse is a bug
	}
	obs := cfg.Observers
	sys := sched.New(eng, soc, cfg.Sched)
	sys.Tel, sys.Prof, sys.Xray = obs.Telemetry, obs.Profiler, obs.Xray
	pw := cfg.Power
	sys.EnergyModel = func(typ platform.CoreType, mhz int) float64 {
		return pw.CorePowerMW(typ, mhz, 1) - pw.CorePowerMW(typ, mhz, 0)
	}
	sys.Start()

	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	s := &Sim{cfg: cfg, eng: eng, soc: soc, sys: sys, rng: rng, rec: rec}

	switch cfg.Scheduler {
	case EfficiencyBased:
		altsched.NewEfficiency(sys)
	case ParallelismAware:
		altsched.NewParallelism(sys)
	case EAS:
		s.eas = altsched.NewEAS(sys, cfg.Power)
	}

	// Knobs.Effective records which knobs each case below reads: a knob a
	// governor starts reading must be kept there too.
	var g *governor.Sampler
	switch cfg.Governor {
	case Performance:
		s.gov = governor.NewPerformance(sys)
	case Powersave:
		s.gov = governor.NewPowersave(sys)
	case Userspace:
		s.gov = governor.NewUserspace(sys, cfg.PinnedMHz)
	case Ondemand:
		g = governor.NewOndemand(sys, cfg.Gov.SampleMs)
	case Conservative:
		g = governor.NewConservative(sys, cfg.Gov.SampleMs)
	case PAST:
		g = governor.NewPAST(sys, cfg.Gov.SampleMs)
	default:
		g = governor.NewInteractive(sys, cfg.Gov)
	}
	if g != nil {
		g.Tel, g.Xray = obs.Telemetry, obs.Xray
		s.gov = g
	}
	s.gov.Start()

	s.sampler = metrics.NewSampler(sys, cfg.Power)
	s.sampler.Tel, s.sampler.Prof = obs.Telemetry, obs.Profiler
	s.sampler.Start()

	// The auditor attaches directly after the sampler so its sampling events
	// always fire right after the sampler's and both read identical state.
	if obs.Check != nil {
		obs.Check.Attach(sys, pw)
	}

	if cfg.Thermal != nil {
		s.therm = thermal.Attach(sys, cfg.Power, *cfg.Thermal)
		s.therm.Tel, s.therm.Xray = obs.Telemetry, obs.Xray
		s.therm.Start()
	}

	// The digest recorder attaches last among the observers so its fold sees
	// the run fully assembled (thermal model included) and its tick
	// subscription runs after the auditor's.
	obs.Digest.Attach(sys, s.sampler, s.therm, cfg.Duration)

	if cfg.OnSystem != nil {
		cfg.OnSystem(sys)
	}
	return s
}

// Effective returns k with every knob its governor does not read reset to
// DefaultKnobs' value, so configs that differ only in such knobs simulate
// identically and compare equal. It mirrors assemble's governor switch:
// performance, powersave and userspace read no Gov tunable; ondemand,
// conservative and PAST read only Gov.SampleMs; every other kind runs
// interactive, which reads all of Gov; only userspace reads PinnedMHz.
func (k Knobs) Effective() Knobs {
	def := DefaultKnobs()
	switch k.Governor {
	case Performance, Powersave:
		k.Gov, k.PinnedMHz = def.Gov, def.PinnedMHz
	case Userspace:
		k.Gov = def.Gov
	case Ondemand, Conservative, PAST:
		def.Gov.SampleMs = k.Gov.SampleMs
		k.Gov, k.PinnedMHz = def.Gov, def.PinnedMHz
	default:
		k.PinnedMHz = def.PinnedMHz
	}
	return k
}

// Build builds app's workload on the assembled platform, generating work
// until the absolute time until. Every Build draws from the run's one random
// source, so apps built one after another continue a single stream. It
// returns the workload's context, whose trackers hold the app's frames and
// latencies.
func (s *Sim) Build(app apps.App, until event.Time) *workload.Ctx {
	ctx := &workload.Ctx{
		Eng:      s.eng,
		Sys:      s.sys,
		Rng:      s.rng,
		Duration: until,
		FPS:      &metrics.FPSTracker{},
		Lat:      &metrics.LatencyTracker{},
		Rec:      s.rec,
	}
	if tel := s.cfg.Telemetry; tel != nil {
		lat := tel.Histogram("latency_ms")
		ctx.Lat.Observe = func(d event.Time) { lat.Observe(d.Milliseconds()) }
	}
	app.Build(ctx)
	s.ctx = ctx
	return ctx
}

// ObserveFrames records the gaps between fps's frames in the telemetry
// "frame_time_ms" histogram, when telemetry is attached.
func (s *Sim) ObserveFrames(fps *metrics.FPSTracker) {
	tel := s.cfg.Telemetry
	if tel == nil {
		return
	}
	ft := tel.Histogram("frame_time_ms")
	times := fps.Times()
	for i := 1; i < len(times); i++ {
		ft.Observe((times[i] - times[i-1]).Milliseconds())
	}
}

// Sys returns the scheduler system.
func (s *Sim) Sys() *sched.System { return s.sys }

// Sampler returns the metrics sampler.
func (s *Sim) Sampler() *metrics.Sampler { return s.sampler }

// Thermal returns the thermal model, or nil when the run has none.
func (s *Sim) Thermal() *thermal.Model { return s.therm }

// NewSim assembles a snapshot-capable simulation: the workload's
// interactions are recorded from the first event, so Snapshot can capture
// the run at any pause point. The config must not carry the observer hooks
// a resume cannot reconstruct (see snapshotCompat).
func NewSim(cfg Config) (*Sim, error) {
	cfg = cfg.Normalized()
	if err := snapshotCompat(cfg); err != nil {
		return nil, err
	}
	return newSim(cfg, workload.NewRecorder(), nil), nil
}

// snapshotCompat rejects config hooks whose state a snapshot cannot capture
// or a resume cannot reconstruct.
func snapshotCompat(cfg Config) error {
	switch {
	case cfg.Check != nil:
		return errors.New("core: snapshot runs cannot carry a Check auditor — it schedules engine events the snapshot cannot re-bind")
	case cfg.Telemetry != nil:
		return errors.New("core: snapshot runs cannot carry Telemetry — collector state is not captured")
	case cfg.Profiler != nil:
		return errors.New("core: snapshot runs cannot carry a Profiler — attribution state is not captured")
	case cfg.Xray != nil:
		return errors.New("core: snapshot runs cannot carry an Xray tracer — trace state is not captured")
	case cfg.OnSystem != nil:
		return errors.New("core: snapshot runs cannot carry an OnSystem hook — arbitrary attachments are not captured")
	}
	return nil
}

// RunTo advances the simulation to t (capped at the configured Duration).
// It may be called repeatedly; the clock never moves backwards.
func (s *Sim) RunTo(t event.Time) {
	if t > s.cfg.Duration {
		t = s.cfg.Duration
	}
	s.eng.Run(t)
}

// Now returns the simulation clock.
func (s *Sim) Now() event.Time { return s.eng.Now() }

// Snapshot captures the complete simulator state at the current clock. The
// capture is a pure read — the simulation continues unperturbed, and a
// continued run produces results byte-identical to one that never paused.
// It fails if any pending engine event belongs to no snapshottable
// subsystem, rather than writing a snapshot that cannot restore.
func (s *Sim) Snapshot() (*snapshot.State, error) {
	rec := s.rec
	if !rec.Recording() {
		return nil, errors.New("core: Snapshot needs a recording simulation (use NewSim, not Resume mid-replay)")
	}
	if s.finished {
		return nil, errors.New("core: Snapshot after Finish")
	}
	if s.cfg.Digest != nil && len(s.cfg.Digest.Steps()) > 0 {
		return nil, errors.New("core: cannot snapshot a run with full-rate digest steps recorded — steps are not carried across a fork")
	}
	id := s.cfg.Identity()
	st := &snapshot.State{
		App:            id.App,
		Seed:           id.Seed,
		Cores:          id.Cores,
		CustomPlatform: id.CustomPlatform,
		SchedKind:      s.cfg.Scheduler.String(),
		GovKind:        s.cfg.Governor.String(),
		Time:           s.eng.Now(),
		Duration:       s.cfg.Duration,
		Engine: snapshot.EngineSnap{
			Now:   s.eng.Now(),
			Seq:   s.eng.Scheduled(),
			Fired: s.eng.Fired(),
		},
		Workload: snapshot.WorkloadSnap{
			Log:      rec.Log(),
			Pending:  rec.Pending(),
			Threads:  rec.ThreadCount(),
			Frames:   append([]event.Time(nil), s.ctx.FPS.Times()...),
			LatTotal: s.ctx.Lat.Total,
			LatMax:   s.ctx.Lat.Max,
			LatN:     s.ctx.Lat.N,
		},
		Sched:   s.sys.Snapshot(),
		SoC:     s.soc.Snapshot(),
		Gov:     s.gov.Snapshot(),
		Metrics: s.sampler.Snapshot(),
	}
	if s.therm != nil {
		t := s.therm.Snapshot()
		st.Thermal = &t
	}
	if s.eas != nil {
		e := s.eas.Snapshot()
		st.EAS = &e
	}
	if s.cfg.Digest != nil {
		d := s.cfg.Digest.Snapshot()
		st.Delta = &d
	}
	if got, want := st.PendingEvents(), s.eng.Pending(); got != want {
		return nil, fmt.Errorf("core: engine has %d pending events but the snapshot accounts for %d — unsnapshottable events on the queue", want, got)
	}
	return st, nil
}

// Identity is the half of a Config that a snapshot pins: a run can resume
// from a snapshot only when its Identity equals the capturing run's. Every
// other knob is policy a fork may vary.
type Identity struct {
	App            string
	Seed           int64
	Cores          platform.CoreConfig
	CustomPlatform bool
}

// Identity returns c's snapshot identity.
func (c Config) Identity() Identity {
	return Identity{App: c.App.Name, Seed: c.Seed, Cores: c.Cores, CustomPlatform: c.Platform != ""}
}

// compat verifies that cfg can legally continue from st: identities must
// match, and the horizon must not precede the capture point.
func compat(cfg Config, st *snapshot.State) error {
	captured := Identity{App: st.App, Seed: st.Seed, Cores: st.Cores, CustomPlatform: st.CustomPlatform}
	switch id := cfg.Identity(); {
	case id != captured:
		return fmt.Errorf("core: resume identity %+v, snapshot captured %+v", id, captured)
	case cfg.Duration < st.Time:
		return fmt.Errorf("core: resume duration %v precedes the capture point %v", cfg.Duration, st.Time)
	}
	return nil
}

// Resume reconstructs a running simulation from a captured State: the
// workload build is re-run in replay mode to rebuild the closure graph and
// RNG position, the engine is reset to the capture point with every pending
// event re-bound under its original ordering key, and each subsystem's
// state is restored. The returned Sim records from the fork point onwards,
// so it can itself be snapshotted again.
//
// The State is read-only: Resume may be called any number of times on the
// same decoded snapshot (that is how a fork sweep shares one prefix).
func Resume(cfg Config, st *snapshot.State) (sim *Sim, err error) {
	cfg = cfg.Normalized()
	if err := snapshotCompat(cfg); err != nil {
		return nil, err
	}
	if err := compat(cfg, st); err != nil {
		return nil, err
	}
	// Replay re-enters workload closures, which report any mismatch between
	// the log and this binary/config by panicking; surface it as an error.
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(*workload.DivergenceError)
			if !ok {
				panic(r)
			}
			sim, err = nil, fmt.Errorf("core: resume: %w", de)
		}
	}()
	rec := workload.NewReplayer(st.Workload.Log)
	s := newSim(cfg, rec, nil)
	rec.Replay(s.eng)
	if got := rec.ThreadCount(); got != st.Workload.Threads {
		return nil, fmt.Errorf("core: replayed build created %d threads, snapshot recorded %d", got, st.Workload.Threads)
	}
	s.eng.Reset(st.Engine.Now, st.Engine.Seq, st.Engine.Fired)
	if err := s.soc.Restore(&st.SoC); err != nil {
		return nil, err
	}
	if err := s.sys.Restore(&st.Sched); err != nil {
		return nil, err
	}
	// Policy state transfers only between like kinds; a different governor
	// (the classic fork-sweep case) starts fresh at the fork point instead.
	// Static governors transfer nothing either way — their operating point
	// lives in the SoC snapshot, and re-running Start here would split the
	// busy-accounting interval and break byte-identity.
	if cfg.Governor.String() == st.GovKind {
		if err := s.gov.Restore(&st.Gov); err != nil {
			return nil, err
		}
	} else {
		s.gov.Start()
	}
	if err := s.sampler.Restore(&st.Metrics); err != nil {
		return nil, err
	}
	if s.therm != nil {
		if st.Thermal != nil {
			if err := s.therm.Restore(st.Thermal); err != nil {
				return nil, err
			}
		} else {
			// The capturing run had no thermal model: this fork turns the
			// envelope on at the fork point.
			s.therm.Start()
		}
	}
	if s.eas != nil && st.EAS != nil && cfg.Scheduler.String() == st.SchedKind {
		if err := s.eas.Restore(st.EAS); err != nil {
			return nil, err
		}
	}
	if cfg.Digest != nil && st.Delta != nil {
		if err := cfg.Digest.Restore(st.Delta); err != nil {
			return nil, err
		}
	}
	rec.Resched(s.eng, st.Workload.Pending)
	// Replay rebuilt the performance trackers from the log; cross-check them
	// against the captured copies before trusting the fork.
	if err := checkTrackers(s.ctx, st); err != nil {
		return nil, err
	}
	return s, nil
}

// checkTrackers compares the replay-reconstructed FPS/latency trackers with
// the snapshot's captured copies — a disagreement means the replay was not
// faithful and the fork must not be trusted.
func checkTrackers(ctx *workload.Ctx, st *snapshot.State) error {
	times := ctx.FPS.Times()
	if len(times) != len(st.Workload.Frames) {
		return fmt.Errorf("core: replay reconstructed %d frames, snapshot captured %d", len(times), len(st.Workload.Frames))
	}
	for i := range times {
		if times[i] != st.Workload.Frames[i] {
			return fmt.Errorf("core: replayed frame %d at %v, snapshot captured %v", i, times[i], st.Workload.Frames[i])
		}
	}
	if ctx.Lat.Total != st.Workload.LatTotal || ctx.Lat.Max != st.Workload.LatMax || ctx.Lat.N != st.Workload.LatN {
		return fmt.Errorf("core: replayed latency tracker (n=%d total=%v max=%v) disagrees with snapshot (n=%d total=%v max=%v)",
			ctx.Lat.N, ctx.Lat.Total, ctx.Lat.Max, st.Workload.LatN, st.Workload.LatTotal, st.Workload.LatMax)
	}
	return nil
}

// Finish assembles the Result. It must be called exactly once, after the
// clock has reached the configured Duration.
func (s *Sim) Finish() Result {
	if s.finished {
		panic("core: Finish called twice")
	}
	s.finished = true
	cfg, ctx, sampler, soc, sys, therm := s.cfg, s.ctx, s.sampler, s.soc, s.sys, s.therm
	s.ObserveFrames(ctx.FPS)

	res := Result{
		App:       cfg.App.Name,
		Metric:    cfg.App.Metric,
		Duration:  cfg.Duration,
		Cores:     cfg.Cores,
		Scheduler: cfg.Scheduler,

		TLP:    sampler.TLP(),
		Matrix: sampler.MatrixPct(),

		AvgPowerMW: sampler.AvgPowerMW(),
		EnergyMJ:   sampler.EnergyMJ(),

		Interactions: ctx.Lat.N,
		MeanLatency:  ctx.Lat.Mean(),
		TotalLatency: ctx.Lat.Total,
		WorstLatency: ctx.Lat.Max,

		Frames: ctx.FPS.Count(),
		AvgFPS: ctx.FPS.Avg(cfg.Duration),
		MinFPS: ctx.FPS.Min(cfg.Duration),
	}
	res.Eff = sampler.EffPct()
	res.TinyActivePct = sampler.TinyActivePct()
	res.AvgLittleUtil = sampler.AvgUtil(platform.Little)
	res.AvgBigUtil = sampler.AvgUtil(platform.Big)

	lc := soc.ClusterByType(platform.Little)
	bc := soc.ClusterByType(platform.Big)
	res.LittleFreqs = lc.FreqsMHz
	res.BigFreqs = bc.FreqsMHz
	res.LittleResidency = sampler.ResidencyPct(platform.Little, lc.FreqsMHz)
	res.BigResidency = sampler.ResidencyPct(platform.Big, bc.FreqsMHz)

	for _, t := range sys.Tasks() {
		res.HMPMigrations += t.Migrations
		res.TotalWorkGc += t.TotalWork / 1e9
		res.TaskStats = append(res.TaskStats, TaskStat{
			Name:       t.Name,
			EnergyJ:    t.EnergyMJ / 1000,
			LittleMs:   t.LittleRanNs.Milliseconds(),
			BigMs:      t.BigRanNs.Milliseconds(),
			TinyMs:     t.TinyRanNs.Milliseconds(),
			Migrations: t.Migrations,
		})
	}
	sort.Slice(res.TaskStats, func(i, j int) bool {
		return res.TaskStats[i].EnergyJ > res.TaskStats[j].EnergyJ
	})
	half := cfg.Duration / 2
	res.FPSFirstHalf = float64(ctx.FPS.CountIn(0, half)) / half.Seconds()
	res.FPSSecondHalf = float64(ctx.FPS.CountIn(half, cfg.Duration)) / (cfg.Duration - half).Seconds()
	if therm != nil {
		res.MaxTempC = therm.MaxTempC
		res.ThrottledPct = therm.ThrottledPct(cfg.Duration)
	}
	if cfg.Profiler != nil {
		snap := cfg.Profiler.Snapshot(cfg.Duration)
		res.Profile = &snap
	}
	// Finish after the result is assembled so reconciliation can never
	// perturb what the caller observes.
	if cfg.Check != nil {
		cfg.Check.Finish(cfg.Duration, res.EnergyMJ)
	}
	return res
}
