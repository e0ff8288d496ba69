package check

import (
	"fmt"
	"math"

	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/metrics"
)

// CheckResult validates a finished core.Result for internal consistency —
// the cross-metric identities that must hold however the run went. Unlike
// the Auditor it needs no live system, so it also applies to results loaded
// from the lab cache or a JSON file. It returns every violation found (nil
// when the result is consistent).
func CheckResult(res core.Result) []Violation {
	var out []Violation
	add := func(invariant, format string, args ...any) {
		out = append(out, Violation{At: res.Duration, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	if res.Duration <= 0 {
		add("result-duration", "non-positive duration %v", res.Duration)
		return out
	}
	if res.EnergyMJ < 0 || res.AvgPowerMW < 0 {
		add("result-energy", "negative energy %v mJ or power %v mW", res.EnergyMJ, res.AvgPowerMW)
	}
	// The meter integrates whole samples only, so energy and average power
	// agree over the sampled time: within one SampleInterval of Duration.
	slack := res.AvgPowerMW*2*metrics.SampleInterval.Seconds() + 1e-6
	if diff := math.Abs(res.EnergyMJ - res.AvgPowerMW*res.Duration.Seconds()); diff > slack {
		add("result-energy", "EnergyMJ %.3f vs AvgPowerMW×Duration %.3f differ by %.3f (> %.3f)",
			res.EnergyMJ, res.AvgPowerMW*res.Duration.Seconds(), diff, slack)
	}

	checkPctTable := func(name string, cells []float64) {
		sum := 0.0
		for _, v := range cells {
			if v < -1e-9 || v > 100+1e-9 {
				add(name, "cell %v outside [0, 100]", v)
			}
			sum += v
		}
		if sum != 0 && math.Abs(sum-100) > 1e-6 {
			add(name, "percentages sum to %v, want 100 (or 0 for an empty run)", sum)
		}
	}
	var matrix []float64
	for b := range res.Matrix {
		matrix = append(matrix, res.Matrix[b][:]...)
	}
	checkPctTable("result-matrix", matrix)
	checkPctTable("result-eff", res.Eff[:])
	checkPctTable("result-little-residency", res.LittleResidency)
	checkPctTable("result-big-residency", res.BigResidency)
	if len(res.LittleResidency) != len(res.LittleFreqs) {
		add("result-little-residency", "%d residency bins for %d table frequencies", len(res.LittleResidency), len(res.LittleFreqs))
	}
	if len(res.BigResidency) != len(res.BigFreqs) {
		add("result-big-residency", "%d residency bins for %d table frequencies", len(res.BigResidency), len(res.BigFreqs))
	}

	if res.TLP.TLP < 0 || res.TLP.TLP > 8 {
		add("result-tlp", "TLP %v outside [0, 8]", res.TLP.TLP)
	}
	if res.TLP.IdlePct < -1e-9 || res.TLP.IdlePct > 100+1e-9 {
		add("result-tlp", "idle %v%% outside [0, 100]", res.TLP.IdlePct)
	}
	if s := res.TLP.LittleOnlyPct + res.TLP.BigPct; s != 0 && math.Abs(s-100) > 1e-6 {
		add("result-tlp", "little-only %v%% + big %v%% = %v, want 100", res.TLP.LittleOnlyPct, res.TLP.BigPct, s)
	}
	if v := res.AvgLittleUtil; v < 0 || v > 1 {
		add("result-util", "average little utilization %v outside [0, 1]", v)
	}
	if v := res.AvgBigUtil; v < 0 || v > 1 {
		add("result-util", "average big utilization %v outside [0, 1]", v)
	}
	if res.TinyActivePct < 0 || res.TinyActivePct > 100 {
		add("result-util", "tiny active share %v%% outside [0, 100]", res.TinyActivePct)
	}

	if res.MeanLatency > res.WorstLatency {
		add("result-latency", "mean latency %v exceeds worst %v", res.MeanLatency, res.WorstLatency)
	}
	if res.Interactions > 0 {
		// Mean is Total/N in integer nanoseconds: Mean·N <= Total < (Mean+1)·N.
		n := event.Time(res.Interactions)
		if res.MeanLatency*n > res.TotalLatency || res.TotalLatency >= (res.MeanLatency+1)*n {
			add("result-latency", "mean %v × %d interactions inconsistent with total %v", res.MeanLatency, res.Interactions, res.TotalLatency)
		}
	}
	if diff := math.Abs(res.AvgFPS*res.Duration.Seconds() - float64(res.Frames)); diff > 1e-6 {
		add("result-fps", "AvgFPS %v × duration %v inconsistent with %d frames", res.AvgFPS, res.Duration, res.Frames)
	}
	// The half-window counts exclude frames completing at exactly t=Duration,
	// which the total includes; allow that boundary.
	half := res.Duration / 2
	halves := res.FPSFirstHalf*half.Seconds() + res.FPSSecondHalf*(res.Duration-half).Seconds()
	if halves > float64(res.Frames)+1e-6 || float64(res.Frames)-halves > 4+1e-6 {
		add("result-fps", "half-window frames %.2f inconsistent with total %d", halves, res.Frames)
	}

	taskMig := 0
	var taskEnergyMJ float64
	for _, ts := range res.TaskStats {
		taskMig += ts.Migrations
		if ts.EnergyJ < 0 || ts.LittleMs < 0 || ts.BigMs < 0 || ts.TinyMs < 0 {
			add("result-tasks", "task %s has negative accounting: %+v", ts.Name, ts)
		}
		taskEnergyMJ += ts.EnergyJ * 1000
	}
	if taskMig != res.HMPMigrations {
		add("result-migrations", "per-task migrations sum to %d but HMPMigrations is %d", taskMig, res.HMPMigrations)
	}
	// Per-task energy is the marginal active power only; the meter adds the
	// base rail and idle overheads on top, so the attributed total must fit
	// strictly inside the metered total on any run that metered at all.
	if res.EnergyMJ > 0 && taskEnergyMJ > res.EnergyMJ*(1+1e-9) {
		add("result-tasks", "attributed task energy %.3f mJ exceeds metered %.3f mJ", taskEnergyMJ, res.EnergyMJ)
	}

	if res.ThrottledPct < 0 || res.ThrottledPct > 100 {
		add("result-thermal", "throttled %v%% outside [0, 100]", res.ThrottledPct)
	}
	if res.MaxTempC < 0 {
		add("result-thermal", "negative max temperature %v", res.MaxTempC)
	}

	// A session's rows partition it: their durations sum to its Duration,
	// and their energies, which are meter deltas and so telescope, to its
	// EnergyMJ.
	if len(res.Phases) == 0 {
		return out
	}
	var dur event.Time
	var rowsMJ float64
	for _, p := range res.Phases {
		dur += p.Duration
		mj := p.EnergyJ * 1000
		rowsMJ += mj
		if pw := p.AvgPowerMW * p.Duration.Seconds(); !nearRel(pw, mj) {
			add("result-phase-power", "phase %s: AvgPowerMW %v × %v is %v mJ, its energy %v mJ",
				p.App, p.AvgPowerMW, p.Duration, pw, mj)
		}
		if p.BigPct < 0 || p.BigPct > 100 || p.DrainPct < 0 {
			add("result-phase-range", "phase %s: big share %v%% outside [0, 100] or drain %v%% negative", p.App, p.BigPct, p.DrainPct)
		}
	}
	if dur != res.Duration {
		add("result-phase-duration", "phase durations sum to %v, Duration is %v", dur, res.Duration)
	}
	if !nearRel(rowsMJ, res.EnergyMJ) {
		add("result-phase-energy", "phase energies sum to %v mJ, EnergyMJ is %v", rowsMJ, res.EnergyMJ)
	}
	return out
}

// nearRel reports whether a and b agree within 1e-9 of the larger.
func nearRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
