// Package analysis implements one driver per table and figure in the
// paper's evaluation (§III, §V, §VI). Each driver returns typed rows so
// tests and benchmarks can assert on them, and render.go formats them the
// way the paper presents them. The experiment index lives in DESIGN.md.
package analysis

import (
	"fmt"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/lab"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
	"biglittle/internal/synth"
	"biglittle/internal/uarch"
)

// Options control experiment scale; zero values take the paper-faithful
// defaults (30 s per app run, full SPEC traces).
type Options struct {
	// Duration per simulated app run.
	Duration event.Time
	// Seed for workload randomness.
	Seed int64
	// Instructions per SPEC trace (0 = the profile default).
	Instructions int
	// Runner orchestrates the driver's simulations: worker-pool fan-out and
	// (when it carries a cache) content-addressed memoization of results
	// and derived results. Nil uses the shared default runner — GOMAXPROCS
	// workers, no cache.
	Runner *lab.Runner
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 30 * event.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) appConfig(app apps.App) core.Config {
	cfg := core.DefaultConfig(app)
	cfg.Duration = o.Duration
	cfg.Seed = o.Seed
	return cfg
}

func (o Options) lab() *lab.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return lab.Default()
}

// runAll executes jobs through the experiment runner and panics on failure:
// driver configs are validated values, so a job that exhausts its retries is
// a bug (core.Run's own convention for misuse).
func (o Options) runAll(jobs []lab.Job) []core.Result {
	res, err := o.lab().RunAll(jobs)
	if err != nil {
		panic(err)
	}
	return res
}

// forEach fans fn out over the runner's worker pool — the parallelism path
// for drivers whose unit of work is not a core simulation (microarchitecture
// and branch-predictor sweeps). Per-index results must be written to
// pre-sized slices so aggregation stays deterministic.
func (o Options) forEach(n int, fn func(i int)) { o.lab().ForEach(n, fn) }

func job(cfg core.Config) lab.Job { return lab.Job{Config: cfg} }

// uarchKey is every input of one microarchitecture run, the identity of its
// memoized result.
type uarchKey struct {
	Model        uarch.Model
	Profile      synth.Profile
	MHz          int
	Instructions int
}

// uarchRun is uarch.Run at o.Instructions, memoized as a derived result in
// the runner's cache. The key holds the effective instruction count, so a
// sparse call and its explicit twin share one entry.
func (o Options) uarchRun(m uarch.Model, p synth.Profile, mhz int) uarch.Result {
	n := o.Instructions
	if n <= 0 {
		n = p.Instructions
	}
	return lab.Memo(o.lab(), "uarch", uarchKey{Model: m, Profile: p, MHz: mhz, Instructions: n},
		func() uarch.Result { return uarch.Run(m, p, mhz, n) })
}

// ---------------------------------------------------------------------------
// Figure 2: SPEC speedup of big core at 1.9/1.3/0.8 GHz vs little at 1.3 GHz.

// Fig2Row is one workload's bars in Figure 2.
type Fig2Row struct {
	Workload  string
	Speedup19 float64 // big @1.9GHz vs little @1.3GHz
	Speedup13 float64 // big @1.3GHz
	Speedup08 float64 // big @0.8GHz
}

// Fig2 reproduces Figure 2.
func Fig2(o Options) []Fig2Row {
	o = o.withDefaults()
	little, big := uarch.CortexA7(), uarch.CortexA15()
	profiles := synth.SPEC()
	rows := make([]Fig2Row, len(profiles))
	o.forEach(len(profiles), func(i int) {
		p := profiles[i]
		base := o.uarchRun(little, p, 1300)
		rows[i] = Fig2Row{
			Workload:  p.Name,
			Speedup19: uarch.Speedup(o.uarchRun(big, p, 1900), base),
			Speedup13: uarch.Speedup(o.uarchRun(big, p, 1300), base),
			Speedup08: uarch.Speedup(o.uarchRun(big, p, 800), base),
		}
	})
	return rows
}

// ---------------------------------------------------------------------------
// Figure 3: whole-system power for SPEC on each core/frequency.

// Fig3Row is one workload's bars in Figure 3 (mW, screen and network off).
type Fig3Row struct {
	Workload string
	Little13 float64
	Big08    float64
	Big13    float64
	Big19    float64
}

// Fig3 reproduces Figure 3. Per-workload variation comes from switching
// activity: memory-bound workloads issue fewer instructions per cycle, so
// their dynamic power is scaled by an activity factor derived from IPC.
func Fig3(o Options) []Fig3Row {
	o = o.withDefaults()
	little, big := uarch.CortexA7(), uarch.CortexA15()
	pw := power.Default()
	sys := func(m uarch.Model, t platform.CoreType, p synth.Profile, mhz int) float64 {
		r := o.uarchRun(m, p, mhz)
		activity := 0.6 + 0.4*r.IPC/float64(m.IssueWidth)
		tp := pw.Little
		if t == platform.Big {
			tp = pw.Big
		}
		v := tp.Voltage(mhz)
		dyn := tp.DynCoefMW * v * v * float64(mhz) * activity
		return pw.BaseMW + dyn + tp.ActiveOverheadMW*v
	}
	profiles := synth.SPEC()
	rows := make([]Fig3Row, len(profiles))
	o.forEach(len(profiles), func(i int) {
		p := profiles[i]
		rows[i] = Fig3Row{
			Workload: p.Name,
			Little13: sys(little, platform.Little, p, 1300),
			Big08:    sys(big, platform.Big, p, 800),
			Big13:    sys(big, platform.Big, p, 1300),
			Big19:    sys(big, platform.Big, p, 1900),
		}
	})
	return rows
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: 4 big cores versus 4 little cores for the mobile apps.

// ClusterCompareRow compares an app on little-only versus big-only cores.
type ClusterCompareRow struct {
	App string
	// Latency metrics (latency apps).
	LatencyReductionPct float64 // how much faster on big (positive = better)
	// FPS metrics (FPS apps).
	AvgFPSGainPct float64
	MinFPSGainPct float64
	// Power.
	PowerIncreasePct float64
	LittleMW, BigMW  float64
}

// clusterCompare builds the little-only and big-only configs for one app,
// and assembles the comparison row from their results.
func clusterConfigs(o Options, app apps.App) (littleCfg, bigCfg core.Config) {
	littleCfg = o.appConfig(app)
	littleCfg.Cores = platform.CoreConfig{Little: 4}

	bigCfg = o.appConfig(app)
	bigCfg.Cores = platform.CoreConfig{Little: 1, Big: 4}
	// Force everything onto the big cluster: with a zero up-threshold every
	// runnable task migrates up immediately, emulating the paper's
	// big-cores-only runs (one little core must stay online in hardware).
	bigCfg.Sched.UpThreshold = -1
	bigCfg.Sched.DownThreshold = -1
	return littleCfg, bigCfg
}

func clusterCompareRows(o Options, suite []apps.App) []ClusterCompareRow {
	jobs := make([]lab.Job, 0, 2*len(suite))
	for _, app := range suite {
		littleCfg, bigCfg := clusterConfigs(o, app)
		jobs = append(jobs, job(littleCfg), job(bigCfg))
	}
	res := o.runAll(jobs)
	rows := make([]ClusterCompareRow, len(suite))
	for i, app := range suite {
		lr, br := res[2*i], res[2*i+1]
		row := ClusterCompareRow{
			App:              app.Name,
			LittleMW:         lr.AvgPowerMW,
			BigMW:            br.AvgPowerMW,
			PowerIncreasePct: pct(br.AvgPowerMW, lr.AvgPowerMW),
		}
		if app.Metric == apps.Latency {
			if br.MeanLatency > 0 && lr.MeanLatency > 0 {
				row.LatencyReductionPct = 100 * (1 - br.MeanLatency.Seconds()/lr.MeanLatency.Seconds())
			}
		} else {
			row.AvgFPSGainPct = pct(br.AvgFPS, lr.AvgFPS)
			row.MinFPSGainPct = pct(br.MinFPS, lr.MinFPS)
		}
		rows[i] = row
	}
	return rows
}

func pct(new, old float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// Fig4 reproduces Figure 4: latency reduction versus power increase when
// the seven latency-oriented apps run on 4 big instead of 4 little cores.
func Fig4(o Options) []ClusterCompareRow {
	o = o.withDefaults()
	return clusterCompareRows(o, apps.LatencyApps())
}

// Fig5 reproduces Figure 5: average and minimum FPS gain versus power
// increase for the five FPS-oriented apps.
func Fig5(o Options) []ClusterCompareRow {
	o = o.withDefaults()
	return clusterCompareRows(o, apps.FPSApps())
}

// ---------------------------------------------------------------------------
// Figure 6: power versus utilization for each core type and frequency.

// Fig6Row is one point of Figure 6.
type Fig6Row struct {
	Type    platform.CoreType
	MHz     int
	UtilPct int
	MW      float64
}

// Fig6 reproduces Figure 6 by running the duty-cycle microbenchmark pinned
// to a single core of each type with a userspace-pinned frequency.
func Fig6(o Options) []Fig6Row {
	o = o.withDefaults()
	dur := o.Duration / 5
	if dur < 2*event.Second {
		dur = o.Duration
	}
	var (
		jobs []lab.Job
		rows []Fig6Row
	)
	for _, tc := range []struct {
		typ   platform.CoreType
		cores platform.CoreConfig
		pin   int
		freqs []int
	}{
		{platform.Little, platform.CoreConfig{Little: 1}, 0, []int{500, 800, 1000, 1300}},
		{platform.Big, platform.CoreConfig{Little: 1, Big: 1}, 4, []int{800, 1200, 1500, 1900}},
	} {
		for _, mhz := range tc.freqs {
			for util := 0; util <= 100; util += 20 {
				cfg := o.appConfig(apps.Micro(util, mhz, tc.pin))
				cfg.Duration = dur
				cfg.Cores = tc.cores
				cfg.Governor = core.Userspace
				cfg.PinnedMHz = map[int]int{0: mhz, 1: mhz}
				// The microbenchmark's duty cycle and pinned core live in
				// its Build closure; salt them into the fingerprint.
				jobs = append(jobs, lab.Job{Config: cfg, Salt: fmt.Sprintf("fig6/%v/%d/%d/%d", tc.typ, mhz, util, tc.pin)})
				rows = append(rows, Fig6Row{Type: tc.typ, MHz: mhz, UtilPct: util})
			}
		}
	}
	res := o.runAll(jobs)
	for i := range rows {
		rows[i].MW = res[i].AvgPowerMW
	}
	return rows
}

// ---------------------------------------------------------------------------
// Tables III and IV, Figures 9/10, Table V: default-configuration runs.

// AppCharacterization bundles all per-app default-run metrics.
type AppCharacterization struct {
	Result core.Result
}

// Characterize runs every app on the baseline configuration; it backs
// Table III (TLP), Table IV (matrix), Table V (efficiency states), and
// Figures 9/10 (frequency residency).
func Characterize(o Options) []core.Result {
	o = o.withDefaults()
	all := apps.All()
	jobs := make([]lab.Job, len(all))
	for i, app := range all {
		jobs[i] = job(o.appConfig(app))
	}
	return o.runAll(jobs)
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: core-count configurations.

// CoreConfigRow holds one app × core-configuration cell of Figures 7/8.
type CoreConfigRow struct {
	App    string
	Config platform.CoreConfig
	// PerfChangePct is the performance change versus the L4+B4 baseline
	// (latency apps: positive means faster interactions; FPS apps: average
	// FPS change).
	PerfChangePct float64
	MinFPSChange  float64
	// PowerSavingPct versus baseline (positive = saves power).
	PowerSavingPct float64
}

// CoreConfigs reproduces Figures 7 and 8 across the seven §V-C hotplug
// combinations for every app.
func CoreConfigs(o Options) []CoreConfigRow {
	o = o.withDefaults()
	all := apps.All()
	cfgs := platform.StudyConfigs()
	per := 1 + len(cfgs) // baseline first, then each hotplug config
	jobs := make([]lab.Job, 0, len(all)*per)
	for _, app := range all {
		jobs = append(jobs, job(o.appConfig(app)))
		for _, cc := range cfgs {
			cfg := o.appConfig(app)
			cfg.Cores = cc
			jobs = append(jobs, job(cfg))
		}
	}
	res := o.runAll(jobs)
	rows := make([]CoreConfigRow, len(all)*len(cfgs))
	for ai, app := range all {
		base := res[ai*per]
		for ci, cc := range cfgs {
			r := res[ai*per+1+ci]
			row := CoreConfigRow{
				App:            app.Name,
				Config:         cc,
				PowerSavingPct: pct(base.AvgPowerMW, r.AvgPowerMW),
				PerfChangePct:  pct(r.Performance(), base.Performance()),
			}
			if app.Metric == apps.FPS {
				row.MinFPSChange = pct(r.MinFPS, base.MinFPS)
			}
			rows[ai*len(cfgs)+ci] = row
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figures 11-13: governor and HMP parameter study.

// Tuning is one of the eight §VI-C configurations.
type Tuning struct {
	Name  string
	Gov   func(*governor.InteractiveConfig)
	Sched func(*sched.Config)
}

// Tunings returns the paper's eight parameter variations.
func Tunings() []Tuning {
	return []Tuning{
		{Name: "interval60", Gov: func(g *governor.InteractiveConfig) { g.SampleMs = 60 }},
		{Name: "interval100", Gov: func(g *governor.InteractiveConfig) { g.SampleMs = 100 }},
		{Name: "target80", Gov: func(g *governor.InteractiveConfig) { g.TargetLoad = 80 }},
		{Name: "target60", Gov: func(g *governor.InteractiveConfig) { g.TargetLoad = 60 }},
		{Name: "hmp_conservative", Sched: func(s *sched.Config) { s.UpThreshold, s.DownThreshold = 850, 400 }},
		{Name: "hmp_aggressive", Sched: func(s *sched.Config) { s.UpThreshold, s.DownThreshold = 550, 100 }},
		{Name: "weight_2x", Sched: func(s *sched.Config) { s.HalfLifeMs = 64 }},
		{Name: "weight_half", Sched: func(s *sched.Config) { s.HalfLifeMs = 16 }},
	}
}

// TuningRow is one app × tuning cell of Figures 11-13.
type TuningRow struct {
	App             string
	Tuning          string
	PowerSavingPct  float64 // vs baseline (positive = saves power)
	LatencyDeltaPct float64 // latency apps: positive = slower
	AvgFPSDeltaPct  float64 // FPS apps
}

// TuningStudy reproduces Figures 11, 12 and 13: every app under the eight
// governor/HMP parameter configurations, compared to the baseline.
func TuningStudy(o Options) []TuningRow {
	o = o.withDefaults()
	all := apps.All()
	tns := Tunings()
	per := 1 + len(tns) // baseline first, then each tuning
	jobs := make([]lab.Job, 0, len(all)*per)
	for _, app := range all {
		jobs = append(jobs, job(o.appConfig(app)))
		for _, tn := range tns {
			cfg := o.appConfig(app)
			if tn.Gov != nil {
				tn.Gov(&cfg.Gov)
			}
			if tn.Sched != nil {
				tn.Sched(&cfg.Sched)
			}
			jobs = append(jobs, job(cfg))
		}
	}
	res := o.runAll(jobs)
	rows := make([]TuningRow, len(all)*len(tns))
	for ai, app := range all {
		base := res[ai*per]
		for ti, tn := range tns {
			r := res[ai*per+1+ti]
			row := TuningRow{
				App:            app.Name,
				Tuning:         tn.Name,
				PowerSavingPct: pct(base.AvgPowerMW, r.AvgPowerMW),
			}
			if app.Metric == apps.Latency {
				row.LatencyDeltaPct = pct(r.MeanLatency.Seconds(), base.MeanLatency.Seconds())
			} else {
				row.AvgFPSDeltaPct = pct(r.AvgFPS, base.AvgFPS)
			}
			rows[ai*len(tns)+ti] = row
		}
	}
	return rows
}

// TuningSummary aggregates TuningStudy rows per tuning: average, min, and
// max power saving across apps — the bars and whiskers of Figure 11.
type TuningSummary struct {
	Tuning       string
	AvgSavingPct float64
	MinSavingPct float64
	MaxSavingPct float64
}

// SummarizeTuning computes Figure 11's aggregates from TuningStudy rows.
func SummarizeTuning(rows []TuningRow) []TuningSummary {
	order := []string{}
	agg := map[string]*TuningSummary{}
	for _, r := range rows {
		s, ok := agg[r.Tuning]
		if !ok {
			s = &TuningSummary{Tuning: r.Tuning, MinSavingPct: r.PowerSavingPct, MaxSavingPct: r.PowerSavingPct}
			agg[r.Tuning] = s
			order = append(order, r.Tuning)
		}
		s.AvgSavingPct += r.PowerSavingPct
		if r.PowerSavingPct < s.MinSavingPct {
			s.MinSavingPct = r.PowerSavingPct
		}
		if r.PowerSavingPct > s.MaxSavingPct {
			s.MaxSavingPct = r.PowerSavingPct
		}
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Tuning]++
	}
	var out []TuningSummary
	for _, name := range order {
		s := agg[name]
		s.AvgSavingPct /= float64(counts[name])
		out = append(out, *s)
	}
	return out
}
