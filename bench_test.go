// Benchmarks: one per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index), plus ablations for the design decisions the
// simulator makes. Each benchmark runs a shortened version of the experiment
// per iteration and reports its headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` both times the harness and regenerates the
// key numbers.
package biglittle_test

import (
	"sync"
	"testing"
	"time"

	"biglittle"
)

// benchOpts keeps per-iteration cost low while preserving every
// experiment's structure; cmd/blreport runs the full-length versions.
var benchOpts = biglittle.ExperimentOptions{
	Duration:     4 * biglittle.Second,
	Seed:         1,
	Instructions: 80_000,
}

func BenchmarkFig2Speedup(b *testing.B) {
	var max13 float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.Fig2(benchOpts)
		max13 = 0
		for _, r := range rows {
			if r.Speedup13 > max13 {
				max13 = r.Speedup13
			}
		}
	}
	b.ReportMetric(max13, "max-speedup@1.3GHz")
}

func BenchmarkFig3SpecPower(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.Fig3(benchOpts)
		sumL, sumB := 0.0, 0.0
		for _, r := range rows {
			sumL += r.Little13
			sumB += r.Big13
		}
		ratio = sumB / sumL
	}
	b.ReportMetric(ratio, "big/little-power@1.3GHz")
}

// BenchmarkDerivedWarm times the drivers built on derived results —
// Figures 2-3, the L2 sweep and the predictor study — re-run over a warm lab
// cache, as a warm blreport runs them: every uarch and branch-predictor
// result is read back, and the benchmark fails if one is computed again.
func BenchmarkDerivedWarm(b *testing.B) {
	cache, err := biglittle.OpenLabCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	o := benchOpts
	o.Runner = biglittle.NewLabRunner(1, cache)
	derived := func() {
		biglittle.Fig2(o)
		biglittle.Fig3(o)
		biglittle.CacheSweep(o)
		biglittle.PredictorStudy(o)
	}
	derived()
	computed := o.Runner.Stats().MemoMisses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		derived()
	}
	b.StopTimer()
	if s := o.Runner.Stats(); s.MemoMisses != computed {
		b.Fatalf("warm pass computed %d derived results, want 0", s.MemoMisses-computed)
	}
}

func BenchmarkFig4LatencyApps(b *testing.B) {
	var avgRed float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.Fig4(benchOpts)
		avgRed = 0
		for _, r := range rows {
			avgRed += r.LatencyReductionPct
		}
		avgRed /= float64(len(rows))
	}
	b.ReportMetric(avgRed, "avg-latency-reduction-%")
}

func BenchmarkFig5FPSApps(b *testing.B) {
	var avgMinGain float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.Fig5(benchOpts)
		avgMinGain = 0
		for _, r := range rows {
			avgMinGain += r.MinFPSGainPct
		}
		avgMinGain /= float64(len(rows))
	}
	b.ReportMetric(avgMinGain, "avg-minFPS-gain-%")
}

func BenchmarkFig6UtilPower(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.Fig6(benchOpts)
		min, max := rows[0].MW, rows[0].MW
		for _, r := range rows {
			if r.MW < min {
				min = r.MW
			}
			if r.MW > max {
				max = r.MW
			}
		}
		spread = max / min
	}
	b.ReportMetric(spread, "power-range-ratio")
}

func characterize(b *testing.B) []biglittle.Result {
	b.Helper()
	return biglittle.Characterize(benchOpts)
}

func BenchmarkTable3TLP(b *testing.B) {
	var maxTLP float64
	for i := 0; i < b.N; i++ {
		for _, r := range characterize(b) {
			if r.TLP.TLP > maxTLP {
				maxTLP = r.TLP.TLP
			}
		}
	}
	b.ReportMetric(maxTLP, "max-TLP")
}

func BenchmarkTable4TLPMatrix(b *testing.B) {
	var b1Share float64
	for i := 0; i < b.N; i++ {
		results := characterize(b)
		b1, bmore := 0.0, 0.0
		for _, r := range results {
			for l := 0; l <= 4; l++ {
				b1 += r.Matrix[1][l]
				bmore += r.Matrix[2][l] + r.Matrix[3][l] + r.Matrix[4][l]
			}
		}
		if b1+bmore > 0 {
			b1Share = 100 * b1 / (b1 + bmore)
		}
	}
	b.ReportMetric(b1Share, "single-big-core-share-%")
}

func BenchmarkTable5Efficiency(b *testing.B) {
	var lowStates float64
	for i := 0; i < b.N; i++ {
		results := characterize(b)
		lowStates = 0
		for _, r := range results {
			lowStates += r.Eff[0] + r.Eff[1]
		}
		lowStates /= float64(len(results))
	}
	b.ReportMetric(lowStates, "avg-min+<50%-share-%")
}

func BenchmarkFig7CoreConfigPerf(b *testing.B) {
	var worstDrop float64
	for i := 0; i < b.N; i++ {
		worstDrop = 0
		for _, r := range biglittle.CoreConfigs(benchOpts) {
			if r.Config.Big == 0 && r.PerfChangePct < worstDrop {
				worstDrop = r.PerfChangePct
			}
		}
	}
	b.ReportMetric(-worstDrop, "worst-little-only-perf-drop-%")
}

func BenchmarkFig8CoreConfigPower(b *testing.B) {
	var bestSaving float64
	for i := 0; i < b.N; i++ {
		bestSaving = 0
		for _, r := range biglittle.CoreConfigs(benchOpts) {
			if r.PowerSavingPct > bestSaving {
				bestSaving = r.PowerSavingPct
			}
		}
	}
	b.ReportMetric(bestSaving, "best-power-saving-%")
}

func BenchmarkFig9LittleFreq(b *testing.B) {
	var minShare float64
	for i := 0; i < b.N; i++ {
		results := characterize(b)
		minShare = 0
		for _, r := range results {
			minShare += r.LittleResidency[0] // 500 MHz bucket
		}
		minShare /= float64(len(results))
	}
	b.ReportMetric(minShare, "avg-time-at-500MHz-%")
}

func BenchmarkFig10BigFreq(b *testing.B) {
	var topShare float64
	for i := 0; i < b.N; i++ {
		results := characterize(b)
		topShare = 0
		for _, r := range results {
			n := len(r.BigResidency)
			topShare += r.BigResidency[n-1] + r.BigResidency[n-2]
		}
		topShare /= float64(len(results))
	}
	b.ReportMetric(topShare, "avg-big-time-at-top-freqs-%")
}

func BenchmarkFig11TuningPower(b *testing.B) {
	var interval60 float64
	for i := 0; i < b.N; i++ {
		sums := biglittle.SummarizeTuning(biglittle.TuningStudy(benchOpts))
		for _, s := range sums {
			if s.Tuning == "interval60" {
				interval60 = s.AvgSavingPct
			}
		}
	}
	b.ReportMetric(interval60, "interval60-avg-saving-%")
}

func BenchmarkFig12TuningLatency(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range biglittle.TuningStudy(benchOpts) {
			if r.LatencyDeltaPct > worst {
				worst = r.LatencyDeltaPct
			}
		}
	}
	b.ReportMetric(worst, "worst-latency-increase-%")
}

func BenchmarkFig13TuningFPS(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, r := range biglittle.TuningStudy(benchOpts) {
			if r.AvgFPSDeltaPct < worst {
				worst = r.AvgFPSDeltaPct
			}
		}
	}
	b.ReportMetric(-worst, "worst-FPS-drop-%")
}

// --- Ablations (DESIGN.md §4) -------------------------------------------

// BenchmarkAblationSpeedup: how sensitive the Fig. 4 latency story is to the
// per-task big-core efficiency — scaling every app thread's speedup to 1
// removes the microarchitectural advantage entirely.
func BenchmarkAblationSpeedup(b *testing.B) {
	app, _ := biglittle.AppByName("encoder")
	var latBig, latFlat float64
	for i := 0; i < b.N; i++ {
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = benchOpts.Duration
		cfg.Cores, _ = biglittle.ParseCoreConfig("L1+B4")
		cfg.Sched.UpThreshold = -1
		cfg.Sched.DownThreshold = -1
		latBig = biglittle.Run(cfg).MeanLatency.Seconds()

		// Same platform but big cores clocked like little ones and no IPC
		// advantage: pin both clusters to 1.3 GHz equivalents.
		cfg2 := cfg
		cfg2.Governor = biglittle.Userspace
		cfg2.PinnedMHz = map[int]int{0: 1300, 1: 800}
		latFlat = biglittle.Run(cfg2).MeanLatency.Seconds()
	}
	b.ReportMetric(100*(latFlat/latBig-1), "slowdown-big@0.8-vs-governed-%")
}

// BenchmarkAblationHistoryWeight: the §VI-C load-history weight sweep on the
// scheduler alone — migration counts under 16/32/64 ms half-lives.
func BenchmarkAblationHistoryWeight(b *testing.B) {
	app, _ := biglittle.AppByName("eternity_warrior")
	var migrations [3]int
	for i := 0; i < b.N; i++ {
		for j, hl := range []int{16, 32, 64} {
			cfg := biglittle.DefaultConfig(app)
			cfg.Duration = benchOpts.Duration
			cfg.Sched.HalfLifeMs = hl
			migrations[j] = biglittle.Run(cfg).HMPMigrations
		}
	}
	b.ReportMetric(float64(migrations[0]), "migrations-hl16")
	b.ReportMetric(float64(migrations[1]), "migrations-hl32")
	b.ReportMetric(float64(migrations[2]), "migrations-hl64")
}

// BenchmarkAblationSampling: governor sampling interval versus reaction — a
// direct measure of the Fig. 12 responsiveness cost.
func BenchmarkAblationSampling(b *testing.B) {
	app, _ := biglittle.AppByName("bbench")
	var lat20, lat100 float64
	for i := 0; i < b.N; i++ {
		for _, s := range []int{20, 100} {
			cfg := biglittle.DefaultConfig(app)
			cfg.Duration = benchOpts.Duration
			cfg.Gov.SampleMs = s
			r := biglittle.Run(cfg)
			if s == 20 {
				lat20 = r.MeanLatency.Seconds()
			} else {
				lat100 = r.MeanLatency.Seconds()
			}
		}
	}
	b.ReportMetric(100*(lat100/lat20-1), "latency-cost-of-100ms-sampling-%")
}

// BenchmarkSingleRun times one baseline app simulation end to end.
func BenchmarkSingleRun(b *testing.B) {
	app, _ := biglittle.AppByName("fifa15")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = benchOpts.Duration
		biglittle.Run(cfg)
	}
}

// BenchmarkDigestOff is BenchmarkSingleRun under its digest-gate name: the
// baseline the gate holds BenchmarkDigestOn against. The digest recorder's
// nil fast path must keep this identical to an undigested run (0 extra
// allocs/op budget — see BENCH_baseline.json).
func BenchmarkDigestOff(b *testing.B) {
	app, _ := biglittle.AppByName("fifa15")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = benchOpts.Duration
		biglittle.Run(cfg)
	}
}

// BenchmarkDigestOn times the same run with a digest recorder attached at
// the default ~1k-window rate, bounding the cost of always-on cross-run
// fingerprinting.
func BenchmarkDigestOn(b *testing.B) {
	app, _ := biglittle.AppByName("fifa15")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = benchOpts.Duration
		cfg.Digest = biglittle.NewDigestRecorder()
		biglittle.Run(cfg)
	}
}

// BenchmarkObserversOn times BenchmarkSingleRun's run with all five
// observers attached at their default bounds: the on-cost of observing a
// run, which live sessions pay. Most of what it allocates is the xray ring
// filling, a span's input and candidate buffers at a time; recording into
// a full ring allocates nothing.
func BenchmarkObserversOn(b *testing.B) {
	app, _ := biglittle.AppByName("fifa15")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = benchOpts.Duration
		cfg.Telemetry, cfg.Profiler, cfg.Xray = biglittle.NewTelemetry(), biglittle.NewProfiler(), biglittle.NewXray()
		cfg.Check, cfg.Digest = biglittle.NewAuditor(), biglittle.NewDigestRecorder()
		biglittle.Run(cfg)
	}
}

// --- Extension studies -----------------------------------------------------

// BenchmarkExtTinyCores: the §VI-B tiny-core proposal — average power saving
// across the suite from adding a T2 cluster, with interactivity preserved.
func BenchmarkExtTinyCores(b *testing.B) {
	var avgSaving float64
	for i := 0; i < b.N; i++ {
		rows := biglittle.TinyStudy(benchOpts)
		avgSaving = 0
		for _, r := range rows {
			avgSaving += r.PowerSavingPct
		}
		avgSaving /= float64(len(rows))
	}
	b.ReportMetric(avgSaving, "avg-power-saving-%")
}

// BenchmarkExtSchedulers: §IV-A policy comparison — how much extra power the
// efficiency-based policy burns on the suite relative to HMP.
func BenchmarkExtSchedulers(b *testing.B) {
	var effPower float64
	for i := 0; i < b.N; i++ {
		effPower = 0
		n := 0
		for _, r := range biglittle.SchedulerStudy(benchOpts) {
			if r.Scheduler == "efficiency" {
				effPower += r.PowerChangePct
				n++
			}
		}
		effPower /= float64(n)
	}
	b.ReportMetric(effPower, "efficiency-policy-power-delta-%")
}

// BenchmarkExtGovernors: §IV-D comparison — PAST's average power saving (and
// implied responsiveness loss) versus the interactive governor.
func BenchmarkExtGovernors(b *testing.B) {
	var pastPower float64
	for i := 0; i < b.N; i++ {
		pastPower = 0
		n := 0
		for _, r := range biglittle.GovernorStudy(benchOpts) {
			if r.Governor == "past" {
				pastPower += r.PowerChangePct
				n++
			}
		}
		pastPower /= float64(n)
	}
	b.ReportMetric(-pastPower, "PAST-power-saving-%")
}

// BenchmarkExtSession: a three-phase usage session end to end.
func BenchmarkExtSession(b *testing.B) {
	mk := func(name string) biglittle.App {
		app, _ := biglittle.AppByName(name)
		return app
	}
	var drain float64
	for i := 0; i < b.N; i++ {
		r := biglittle.RunSession(biglittle.NewSession(
			biglittle.SessionPhase{App: mk("browser"), Duration: 3 * biglittle.Second},
			biglittle.SessionPhase{App: mk("eternity_warrior"), Duration: 3 * biglittle.Second},
			biglittle.SessionPhase{App: mk("video_player"), Duration: 3 * biglittle.Second},
		))
		drain = r.TotalDrainPct
	}
	b.ReportMetric(drain*1000, "milli-%-battery-per-9s")
}

// BenchmarkLongSession times a 600 s session with no observers: 30 phases
// of browser, eternity_warrior and video_player in turn, 20 s each. Every
// phase adds threads that then sleep for the rest of the session, so per-tick
// work that walks every thread ever created, rather than the live ones, makes
// later phases slower than early ones. That growth moves no allocation, so
// the benchmark reports the wall time of the last three phases over the first
// three and fails above 6x.
func BenchmarkLongSession(b *testing.B) {
	var phases []biglittle.SessionPhase
	for i := 0; i < 30; i++ {
		app, err := biglittle.AppByName([]string{"browser", "eternity_warrior", "video_player"}[i%3])
		if err != nil {
			b.Fatal(err)
		}
		phases = append(phases, biglittle.SessionPhase{App: app, Duration: 20 * biglittle.Second})
	}
	walls := make([]time.Duration, len(phases))
	var growth float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := biglittle.NewLiveSession(biglittle.NewSession(phases...))
		var end biglittle.Time
		for p, ph := range phases {
			end += ph.Duration
			start := time.Now()
			live.Advance(end)
			walls[p] = time.Since(start)
		}
		n := len(walls)
		first := walls[0] + walls[1] + walls[2]
		last := walls[n-3] + walls[n-2] + walls[n-1]
		growth = float64(last) / float64(first)
		if growth > 6 {
			b.Fatalf("the last three phases took %.1fx the first three (%v vs %v), want <= 6x", growth, last, first)
		}
	}
	b.ReportMetric(growth, "last3/first3")
}

// BenchmarkExtEDP: the energy-delay synthesis across four configurations.
func BenchmarkExtEDP(b *testing.B) {
	var l4Wins float64
	for i := 0; i < b.N; i++ {
		l4Wins = 0
		for _, r := range biglittle.EDP(benchOpts) {
			if r.Best && (r.Config == "L4" || r.Config == "L4+B1") {
				l4Wins++
			}
		}
	}
	b.ReportMetric(l4Wins, "apps-won-by-L4-or-L4+B1")
}

// BenchmarkForkSweep times a 32-point governor-tuning grid (8 sample
// intervals x 4 target loads) through the fork-accelerated lab path: one
// shared prefix warmed to 95% of the run, then 32 cheap continuations, each
// applying its tuning at the fork point. The x-vs-cold metric is the
// wall-clock ratio against the same grid run from scratch (measured once
// per process); the acceptance bar is >=5x, and the perf gate holds the
// forked path's time/op alongside it.
func BenchmarkForkSweep(b *testing.B) {
	forkJobs, coldJobs := forkSweepJobs()
	coldOnce.Do(func() {
		start := time.Now()
		r := biglittle.NewLabRunner(1, nil)
		if _, err := r.RunAll(coldJobs); err != nil {
			b.Fatal(err)
		}
		coldSweep = time.Since(start)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := biglittle.NewLabRunner(1, nil)
		if _, err := r.RunAll(forkJobs); err != nil {
			b.Fatal(err)
		}
	}
	forked := b.Elapsed() / time.Duration(b.N)
	if forked > 0 {
		b.ReportMetric(float64(coldSweep)/float64(forked), "x-vs-cold")
	}
}

var (
	coldOnce  sync.Once
	coldSweep time.Duration
)

// BenchmarkPrefixCodec times the disk prefix tier's codec, which
// BenchmarkForkSweep never reaches (it runs without a cache): one op
// encodes and decodes fifa15's 28.5 s prefix, the fork point of a 95% fork
// sweep of a 30 s frame app, through EncodeSnapshot and DecodeSnapshot.
// blob-KB is the prefix's size on disk.
func BenchmarkPrefixCodec(b *testing.B) {
	app, _ := biglittle.AppByName("fifa15")
	cfg := biglittle.DefaultConfig(app)
	sim, err := biglittle.NewSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 20 * 19)
	st, err := sim.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	var blob []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob, err = biglittle.EncodeSnapshot(st); err != nil {
			b.Fatal(err)
		}
		if _, err := biglittle.DecodeSnapshot(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1000, "blob-KB")
}

// forkSweepJobs builds the BenchmarkForkSweep grid twice over: the
// fork-accelerated jobs and their from-scratch equivalents.
func forkSweepJobs() ([]biglittle.LabJob, []biglittle.LabJob) {
	app, _ := biglittle.AppByName("encoder")
	base := biglittle.DefaultConfig(app)
	base.Duration = benchOpts.Duration
	spec := &biglittle.LabForkSpec{Base: base, At: base.Duration / 20 * 19}
	var forkJobs, coldJobs []biglittle.LabJob
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			cfg := base
			cfg.Gov.SampleMs = 20 + 20*i
			cfg.Gov.TargetLoad = 70 + 5*j
			coldJobs = append(coldJobs, biglittle.LabJob{Config: cfg})
			forkJobs = append(forkJobs, biglittle.LabJob{Config: cfg, Fork: spec})
		}
	}
	return forkJobs, coldJobs
}

// BenchmarkExplore times the successive-halving search over a 3072-point
// hardware-led space (cores x governor x scheduler x sampling x target
// load on fifa15) and holds it to the tentpole claim: the ladder must find
// the exact energy-delay winner the exhaustive sweep finds while
// simulating >=10x fewer nanoseconds. The exhaustive ground truth runs
// once per process; the x-sim-avoided metric is exhaustive simulated time
// over the exploration's, and the gate tracks it alongside time/op.
func BenchmarkExplore(b *testing.B) {
	space := exploreBenchSpace()
	opts := func() biglittle.ExploreOptions {
		return biglittle.ExploreOptions{
			Runner:      biglittle.NewLabRunner(1, nil),
			Objective:   biglittle.ExploreEDP,
			Eta:         4,
			Keep:        16,
			MinDuration: space.Base.Duration / 64,
		}
	}
	exhaustiveOnce.Do(func() {
		rep, err := biglittle.ExploreExhaustive(space, opts())
		if err != nil {
			b.Fatal(err)
		}
		exhaustiveWinner = rep.Winner.Index
	})
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := biglittle.Explore(space, opts())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Winner.Index != exhaustiveWinner {
			b.Fatalf("explore winner [%d] %s differs from exhaustive winner [%d]",
				rep.Winner.Index, rep.Winner.Desc, exhaustiveWinner)
		}
		ratio = float64(rep.ExhaustiveNs) / float64(rep.SimulatedNs)
		if ratio < 10 {
			b.Fatalf("explore simulated only %.1fx less than exhaustive, want >=10x", ratio)
		}
	}
	b.ReportMetric(ratio, "x-sim-avoided")
}

var (
	exhaustiveOnce   sync.Once
	exhaustiveWinner int
)

// exploreBenchSpace is the BenchmarkExplore search space: dimensions with
// first-order effects (core allocation, governor, scheduler) ahead of
// governor tunables, so the winner is separated by a margin low-fidelity
// screening preserves.
func exploreBenchSpace() biglittle.ExploreSpace {
	app, _ := biglittle.AppByName("fifa15")
	base := biglittle.DefaultConfig(app)
	base.Duration = benchOpts.Duration
	return biglittle.ExploreSpace{
		Base: base,
		Dims: []biglittle.ExploreDim{
			{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4+B1", "L4", "L2+B2", "L2+B1", "L2", "L1+B1"}},
			{Key: "governor", Values: []string{"interactive", "performance", "powersave", "ondemand", "conservative", "past"}},
			{Key: "scheduler", Values: []string{"hmp", "efficiency", "parallelism", "eas"}},
			{Key: "sample-ms", Values: []string{"10", "60", "150", "400"}},
			{Key: "target-load", Values: []string{"50", "70", "90", "99"}},
		},
	}
}

// TestExploreBenchSpaceDistinct pins how many simulations BenchmarkExplore's
// space holds at one duration, which is what a lab batch with a cache runs:
// 8 core configs x 4 schedulers x (16 interactive points + 4 each for
// ondemand, conservative and PAST, which read only sample-ms, + 1 each for
// performance and powersave, which read no tunable) = 960 of 3072.
func TestExploreBenchSpaceDistinct(t *testing.T) {
	space := exploreBenchSpace()
	distinct := make(map[string]bool)
	for i := 0; i < space.Size(); i++ {
		cfg, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := biglittle.LabFingerprint(biglittle.LabJob{Config: cfg})
		if !ok {
			t.Fatalf("point %d (%s) is not fingerprintable", i, space.Desc(i))
		}
		distinct[fp] = true
	}
	if space.Size() != 3072 || len(distinct) != 960 {
		t.Fatalf("the space's %d points fingerprint to %d distinct jobs, want 3072 and 960", space.Size(), len(distinct))
	}
}

// BenchmarkAblationL2Size: how much of mcf's same-frequency gap the L2-size
// difference explains.
func BenchmarkAblationL2Size(b *testing.B) {
	var collapse float64
	for i := 0; i < b.N; i++ {
		for _, r := range biglittle.CacheSweep(benchOpts) {
			if r.Workload == "mcf" {
				collapse = r.SpeedupAt[512] / r.SpeedupAt[2048]
			}
		}
	}
	b.ReportMetric(collapse, "mcf-gap-from-L2-size-x")
}
