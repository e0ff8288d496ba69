// Package session runs multi-app usage scenarios — a sequence of
// application phases (browse, watch, play, ...) inside one continuous
// simulation, with per-phase performance, power, and battery accounting.
// A session is a core.Config whose Phases list the apps; core.Sim sequences
// them and closes one row per phase, and this package sums the rows into
// session totals, renders them, and steps a live session. The paper
// characterizes apps in isolation; sessions show how the asymmetric
// platform behaves across a realistic stretch of device use, including the
// governor and load-tracker state carried across app switches.
package session

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"biglittle/internal/battery"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/sched"
)

// Result summarizes a session.
type Result struct {
	Phases        []core.PhaseResult
	Duration      event.Time
	TotalEnergyJ  float64
	TotalDrainPct float64
	AvgPowerMW    float64
	// Thermal metrics across the whole session (zero unless Config.Thermal
	// was set).
	MaxTempC     float64
	ThrottledPct float64
}

// Run executes the session cfg.Phases describe. Phases run back to back on
// one platform: the governor's frequencies and each surviving thread's load
// history persist across switches, as on a real device.
func Run(cfg core.Config) Result {
	if len(cfg.Phases) == 0 {
		return Result{}
	}
	l := NewLive(cfg)
	l.Advance(l.Duration())
	return l.Result()
}

// Live is an incrementally-advanced session: a core.Sim whose phases the
// caller steps through, controlling how far simulated time moves on each
// Advance call. This is what cmd/blserve drives, pacing simulated time
// against the wall clock while HTTP handlers read the attached telemetry
// collector, profiler, and sampler between steps.
//
// Live is not goroutine-safe: Advance and any reads of the attached
// observers (including Profiler snapshots and telemetry rendering) must be
// externally serialized.
type Live struct {
	Sys     *sched.System
	Sampler *metrics.Sampler

	cfg core.Config
	sim *core.Sim
}

// NewLive assembles the session cfg.Phases describe on a core.Sim and
// returns it ready to Advance.
func NewLive(cfg core.Config) *Live {
	l := &Live{cfg: cfg.Normalized(), sim: core.Assemble(cfg)}
	l.Sys, l.Sampler = l.sim.Sys(), l.sim.Sampler()
	return l
}

// Duration returns the total session length (the sum of phase durations).
func (l *Live) Duration() event.Time { return l.cfg.Duration }

// Now returns the current simulated time.
func (l *Live) Now() event.Time { return l.sim.Now() }

// Done reports whether every phase has completed.
func (l *Live) Done() bool { return len(l.sim.Phases()) == len(l.cfg.Phases) }

// Phase returns the name of the phase currently running ("" when done).
func (l *Live) Phase() string {
	if l.Done() {
		return ""
	}
	return l.cfg.Phases[len(l.sim.Phases())].App.Name
}

// Advance runs the session up to absolute simulated time `to` with
// core.Sim.RunTo, so a session advanced in any step sizes produces the
// identical Result. Returns true once every phase has completed; times
// beyond the session end are clamped.
func (l *Live) Advance(to event.Time) bool {
	if l.Done() {
		return true
	}
	l.sim.RunTo(to)
	if !l.Done() {
		return false
	}
	// The last row is final: Finish runs the auditor's reconciliation and
	// gives the run's random source back.
	l.sim.Finish()
	return true
}

// Result returns the session result so far: completed phases only, with
// session totals filled in once every phase is done.
func (l *Live) Result() Result {
	r := Result{Phases: l.sim.Phases()}
	for _, p := range r.Phases {
		r.TotalEnergyJ += p.EnergyJ
		r.Duration += p.Duration
	}
	if !l.Done() {
		return r
	}
	r.TotalDrainPct = battery.GalaxyS5().DrainPct(r.TotalEnergyJ * 1000)
	r.AvgPowerMW = r.TotalEnergyJ * 1000 / r.Duration.Seconds()
	if therm := l.sim.Thermal(); therm != nil {
		r.MaxTempC = therm.MaxTempC
		r.ThrottledPct = therm.ThrottledPct(r.Duration)
	}
	return r
}

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
