package analysis

import (
	"fmt"
	"math"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
)

// Stat is a mean with spread over repeated seeded runs.
type Stat struct {
	Mean, Std, Min, Max float64
	N                   int
}

func newStat(samples []float64) Stat {
	s := Stat{N: len(samples), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		return Stat{}
	}
	for _, v := range samples {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(s.N)
	for _, v := range samples {
		s.Std += (v - s.Mean) * (v - s.Mean)
	}
	if s.N > 1 {
		s.Std = math.Sqrt(s.Std / float64(s.N-1))
	}
	return s
}

func (s Stat) String() string {
	return fmt.Sprintf("%.2f ± %.2f [%.2f, %.2f]", s.Mean, s.Std, s.Min, s.Max)
}

// SeedStatsRow aggregates one app's Table III metrics over multiple seeds.
type SeedStatsRow struct {
	App     string
	IdlePct Stat
	BigPct  Stat
	TLP     Stat
	PowerMW Stat
	Perf    Stat // FPS for FPS apps, mean latency in ms for latency apps
}

// SeedStats re-runs the Table III characterization under `seeds` different
// workload seeds and reports mean ± sample standard deviation (and range)
// per app — the run-to-run variation a measurement study would report as
// error bars. The paper reports single runs; this quantifies how much its
// numbers could wobble.
func SeedStats(o Options, seeds int) []SeedStatsRow {
	o = o.withDefaults()
	if seeds < 2 {
		seeds = 2
	}
	all := apps.All()
	vary := make([]func(*core.Config), seeds)
	for s := range vary {
		seed := o.Seed + int64(s)*7919 // distinct, deterministic seeds
		vary[s] = func(c *core.Config) { c.Seed = seed }
	}
	res := o.grid(all, vary...)
	rows := make([]SeedStatsRow, len(all))
	for ai, app := range all {
		idle := make([]float64, seeds)
		big := make([]float64, seeds)
		tlp := make([]float64, seeds)
		pw := make([]float64, seeds)
		perf := make([]float64, seeds)
		for s := 0; s < seeds; s++ {
			r := res[ai][s]
			idle[s] = r.TLP.IdlePct
			big[s] = r.TLP.BigPct
			tlp[s] = r.TLP.TLP
			pw[s] = r.AvgPowerMW
			if app.Metric == apps.FPS {
				perf[s] = r.AvgFPS
			} else {
				perf[s] = r.MeanLatency.Milliseconds()
			}
		}
		rows[ai] = SeedStatsRow{
			App:     app.Name,
			IdlePct: newStat(idle),
			BigPct:  newStat(big),
			TLP:     newStat(tlp),
			PowerMW: newStat(pw),
			Perf:    newStat(perf),
		}
	}
	return rows
}

// RenderSeedStats formats the multi-seed variation study.
func RenderSeedStats(rows []SeedStatsRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Run-to-run variation across workload seeds (mean ± std [min, max])")
		fmt.Fprintln(w, "app\tidle %\tbig %\tTLP\tpower mW\tperf (fps | ms)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%v\t%v\n",
				r.App, r.IdlePct, r.BigPct, r.TLP, r.PowerMW, r.Perf)
		}
	})
}
