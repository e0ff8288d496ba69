// Package session runs multi-app usage scenarios — a sequence of
// application phases (browse, watch, play, ...) inside one continuous
// simulation, with per-phase performance, power, and battery accounting.
// The paper characterizes apps in isolation; sessions show how the
// asymmetric platform behaves across a realistic stretch of device use,
// including the governor and load-tracker state carried across app
// switches.
package session

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/battery"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
)

// Phase is one segment of a session.
type Phase struct {
	App      apps.App
	Duration event.Time
}

// Config describes a session run. Zero-valued platform fields get
// core.Config's defaults, and a zero Pack is the Galaxy S5 battery.
type Config struct {
	Phases []Phase
	Seed   int64
	Cores  platform.CoreConfig
	Sched  sched.Config
	Gov    governor.InteractiveConfig
	Power  power.Params
	Pack   battery.Pack

	// Thermal, when non-nil, attaches the exponential thermal model and
	// its throttling governor cap; MaxTempC/ThrottledPct land on Result.
	Thermal *thermal.Params

	// Observers watch the whole session, across every phase. Threads live
	// per phase, so the profiler's table carries every phase's threads side
	// by side, and the latency and frame-time histograms span all phases.
	// cmd/blserve serves them while the session runs.
	core.Observers
}

// DefaultConfig returns a session on the paper's baseline platform with the
// Galaxy S5 battery.
func DefaultConfig(phases ...Phase) Config {
	return Config{
		Phases: phases,
		Seed:   1,
		Cores:  platform.Baseline(),
		Sched:  sched.DefaultConfig(),
		Gov:    governor.DefaultInteractive(),
		Power:  power.Default(),
		Pack:   battery.GalaxyS5(),
	}
}

// PhaseResult holds one phase's metrics.
type PhaseResult struct {
	App          string
	Duration     event.Time
	AvgPowerMW   float64
	EnergyJ      float64
	DrainPct     float64
	AvgFPS       float64
	Interactions int
	MeanLatency  event.Time
	BigPct       float64
}

// Result summarizes a session.
type Result struct {
	Phases        []PhaseResult
	Duration      event.Time
	TotalEnergyJ  float64
	TotalDrainPct float64
	AvgPowerMW    float64
	// Thermal metrics across the whole session (zero unless Config.Thermal
	// was set).
	MaxTempC     float64
	ThrottledPct float64
}

// Run executes the session. Phases run back to back on one platform: the
// governor's frequencies and each surviving thread's load history persist
// across switches, as on a real device.
func Run(cfg Config) Result {
	if len(cfg.Phases) == 0 {
		return Result{}
	}
	l := NewLive(cfg)
	l.Advance(l.Duration())
	return l.Result()
}

// Live is an incrementally-advanced session: the same phase sequencing as
// Run, but the caller controls how far simulated time moves on each Advance
// call. This is what cmd/blserve drives, pacing simulated time against the
// wall clock while HTTP handlers read the attached telemetry collector,
// profiler, and sampler between steps.
//
// Live is not goroutine-safe: Advance and any reads of the attached
// observers (including Profiler snapshots and telemetry rendering) must be
// externally serialized.
type Live struct {
	Sys     *sched.System
	Sampler *metrics.Sampler

	cfg        Config
	sim        *core.Sim
	res        Result
	phaseIdx   int        // index of the phase currently running (or next to build)
	phaseStart event.Time // start time of phase phaseIdx
	ctx        *workload.Ctx
	prevEnergy float64
	prevBig    int
	prevActive int
	done       bool
}

// NewLive assembles the session's platform on a core.Sim spanning every phase
// and returns it ready to Advance.
func NewLive(cfg Config) *Live {
	if cfg.Pack == (battery.Pack{}) {
		cfg.Pack = battery.GalaxyS5()
	}
	l := &Live{cfg: cfg, done: len(cfg.Phases) == 0}
	l.sim = core.Assemble(core.Config{
		Seed:      cfg.Seed,
		Duration:  l.Duration(),
		Cores:     cfg.Cores,
		Sched:     cfg.Sched,
		Gov:       cfg.Gov,
		Power:     cfg.Power,
		Thermal:   cfg.Thermal,
		Observers: cfg.Observers,
	})
	l.Sys, l.Sampler = l.sim.Sys(), l.sim.Sampler()
	return l
}

// Duration returns the total session length (the sum of phase durations).
func (l *Live) Duration() event.Time {
	var d event.Time
	for _, ph := range l.cfg.Phases {
		d += ph.Duration
	}
	return d
}

// Now returns the current simulated time.
func (l *Live) Now() event.Time { return l.sim.Now() }

// Done reports whether every phase has completed.
func (l *Live) Done() bool { return l.done }

// Phase returns the name of the phase currently running ("" when done).
func (l *Live) Phase() string {
	if l.done || l.phaseIdx >= len(l.cfg.Phases) {
		return ""
	}
	return l.cfg.Phases[l.phaseIdx].App.Name
}

// finishPhase captures the completed phase's metrics (energy delta, big-core
// share, performance) into the session result.
func (l *Live) finishPhase() {
	ph := l.cfg.Phases[l.phaseIdx]
	ctx := l.ctx

	energy := l.Sampler.EnergyMJ()
	dE := (energy - l.prevEnergy) / 1000
	l.prevEnergy = energy

	// Per-phase big-core share from the matrix deltas.
	big, active := 0, 0
	for b := 0; b <= 4; b++ {
		for lc := 0; lc <= 4; lc++ {
			n := l.Sampler.Matrix[b][lc]
			if b == 0 && lc == 0 {
				continue
			}
			active += n
			if b > 0 {
				big += n
			}
		}
	}
	bigPct := 0.0
	if active > l.prevActive {
		bigPct = 100 * float64(big-l.prevBig) / float64(active-l.prevActive)
	}
	l.prevBig, l.prevActive = big, active

	l.sim.ObserveFrames(ctx.FPS)

	l.res.Phases = append(l.res.Phases, PhaseResult{
		App:          ph.App.Name,
		Duration:     ph.Duration,
		AvgPowerMW:   dE * 1000 / ph.Duration.Seconds(),
		EnergyJ:      dE,
		DrainPct:     l.cfg.Pack.DrainPct(dE * 1000),
		AvgFPS:       ctx.FPS.Avg(ph.Duration),
		Interactions: ctx.Lat.N,
		MeanLatency:  ctx.Lat.Mean(),
		BigPct:       bigPct,
	})
	l.res.TotalEnergyJ += dE
	l.res.Duration += ph.Duration
}

// Advance runs the simulation up to absolute simulated time `to`, building
// each phase's workload at its start and capturing its metrics at its end —
// the same sequencing as Run, so a session advanced in any step sizes
// produces the identical Result. Returns true once every phase has
// completed; times beyond the session end are clamped.
func (l *Live) Advance(to event.Time) bool {
	if l.done {
		return true
	}
	if max := l.Duration(); to > max {
		to = max
	}
	for l.phaseIdx < len(l.cfg.Phases) {
		ph := l.cfg.Phases[l.phaseIdx]
		phaseEnd := l.phaseStart + ph.Duration
		// Build between RunTo calls, after every event due at phaseStart. A
		// build scheduled as an engine event would fire ahead of the tick
		// and sampler events due then, changing the event order.
		if l.ctx == nil {
			l.ctx = l.sim.Build(ph.App, phaseEnd)
		}
		l.sim.RunTo(min(to, phaseEnd))
		if to < phaseEnd {
			return false // mid-phase: resume here on the next Advance
		}
		l.finishPhase()
		l.ctx = nil
		l.phaseStart = phaseEnd
		l.phaseIdx++
		if phaseEnd >= to && l.phaseIdx < len(l.cfg.Phases) {
			return false
		}
	}
	l.done = true
	l.res.TotalDrainPct = l.cfg.Pack.DrainPct(l.res.TotalEnergyJ * 1000)
	if l.res.Duration > 0 {
		l.res.AvgPowerMW = l.res.TotalEnergyJ * 1000 / l.res.Duration.Seconds()
	}
	if therm := l.sim.Thermal(); therm != nil {
		l.res.MaxTempC = therm.MaxTempC
		l.res.ThrottledPct = therm.ThrottledPct(l.res.Duration)
	}
	// Finish after the result is final so reconciliation can never perturb
	// what the caller observes.
	if l.cfg.Check != nil {
		l.cfg.Check.Finish(l.res.Duration, l.Sampler.EnergyMJ())
	}
	return true
}

// Result returns the session result so far: completed phases only, with
// session totals filled in once every phase is done.
func (l *Live) Result() Result { return l.res }

// Render formats a session result.
func Render(r Result) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Session: per-phase power, performance, and battery drain")
	fmt.Fprintln(w, "phase\tduration\tavg mW\tenergy J\tdrain %\tbig %\tperf")
	for _, p := range r.Phases {
		perf := fmt.Sprintf("%.1f fps", p.AvgFPS)
		if p.Interactions > 0 {
			perf = fmt.Sprintf("%v x%d", p.MeanLatency, p.Interactions)
		}
		fmt.Fprintf(w, "%s\t%v\t%.0f\t%.1f\t%.2f\t%.1f\t%s\n",
			p.App, p.Duration, p.AvgPowerMW, p.EnergyJ, p.DrainPct, p.BigPct, perf)
	}
	fmt.Fprintf(w, "total\t%v\t%.0f\t%.1f\t%.2f\t\t\n",
		r.Duration, r.AvgPowerMW, r.TotalEnergyJ, r.TotalDrainPct)
	w.Flush()
	return b.String()
}
