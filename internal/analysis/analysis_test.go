package analysis

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/platform"
)

var testOpts = Options{Duration: 8 * event.Second, Seed: 1, Instructions: 120_000}

func TestFig2Shape(t *testing.T) {
	rows := Fig2(testOpts)
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12 SPEC workloads", len(rows))
	}
	max13, slower08 := 0.0, 0
	for _, r := range rows {
		if r.Speedup13 <= 1.0 {
			t.Errorf("%s: big@1.3 speedup %.2f <= 1; paper: big always wins at equal frequency", r.Workload, r.Speedup13)
		}
		if r.Speedup19 <= r.Speedup13 {
			t.Errorf("%s: 1.9GHz speedup %.2f <= 1.3GHz %.2f", r.Workload, r.Speedup19, r.Speedup13)
		}
		if r.Speedup08 >= r.Speedup13 {
			t.Errorf("%s: 0.8GHz speedup %.2f >= 1.3GHz %.2f", r.Workload, r.Speedup08, r.Speedup13)
		}
		if r.Speedup13 > max13 {
			max13 = r.Speedup13
		}
		if r.Speedup08 < 1.0 {
			slower08++
		}
	}
	if max13 < 3.5 || max13 > 5.5 {
		t.Errorf("max equal-frequency speedup %.2f, paper ~4.5", max13)
	}
	if slower08 < 2 || slower08 > 5 {
		t.Errorf("%d workloads slower on big@0.8GHz, paper shows 3", slower08)
	}
}

func TestFig3Shape(t *testing.T) {
	rows := Fig3(testOpts)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.Little13 < r.Big08 && r.Big08 < r.Big13 && r.Big13 < r.Big19) {
			t.Errorf("%s: power not ordered little13 < big08 < big13 < big19: %+v", r.Workload, r)
		}
		// §III-A: big@1.3 ~2.3x little@1.3; big@0.8 ~1.5x little@1.3.
		if ratio := r.Big13 / r.Little13; ratio < 1.8 || ratio > 2.8 {
			t.Errorf("%s: big13/little13 = %.2f, paper ~2.3", r.Workload, ratio)
		}
		if ratio := r.Big08 / r.Little13; ratio < 1.2 || ratio > 1.9 {
			t.Errorf("%s: big08/little13 = %.2f, paper ~1.5", r.Workload, ratio)
		}
	}
	// Power variation across workloads is smaller than performance variation.
	min19, max19 := rows[0].Big19, rows[0].Big19
	for _, r := range rows {
		if r.Big19 < min19 {
			min19 = r.Big19
		}
		if r.Big19 > max19 {
			max19 = r.Big19
		}
	}
	if max19/min19 > 1.6 {
		t.Errorf("big@1.9 power spread %.2fx across workloads, paper: small differences", max19/min19)
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4(testOpts)
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7 latency apps", len(rows))
	}
	for _, r := range rows {
		if r.LatencyReductionPct <= 0 {
			t.Errorf("%s: big cores did not reduce latency (%.1f%%)", r.App, r.LatencyReductionPct)
		}
		// Paper: performance difference is relatively small (<~30%); our
		// reproduction lands under 50% for every app.
		if r.LatencyReductionPct > 55 {
			t.Errorf("%s: latency reduction %.1f%% far above the paper's band", r.App, r.LatencyReductionPct)
		}
		if r.BigMW <= r.LittleMW {
			t.Errorf("%s: big run cheaper than little run", r.App)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows := Fig5(testOpts)
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5 FPS apps", len(rows))
	}
	for _, r := range rows {
		// Paper: average FPS differences are small...
		if r.AvgFPSGainPct < -3 || r.AvgFPSGainPct > 25 {
			t.Errorf("%s: avg FPS gain %.1f%% outside the paper's small-gain band", r.App, r.AvgFPSGainPct)
		}
		// ...but the worst-case FPS benefits more than the average for the
		// CPU-heavy games.
		if r.MinFPSGainPct < -5 {
			t.Errorf("%s: min FPS regressed %.1f%% on big cores", r.App, r.MinFPSGainPct)
		}
	}
	// Eternity Warrior is the paper's callout for a real average gain.
	for _, r := range rows {
		if r.App == "eternity_warrior" && r.AvgFPSGainPct < 1 {
			t.Errorf("eternity_warrior avg gain %.1f%%, paper highlights it as the exception", r.AvgFPSGainPct)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rows := Fig6(Options{Duration: 5 * event.Second, Seed: 1})
	byKey := map[string]map[int]float64{} // type-mhz -> util -> mW
	for _, r := range rows {
		k := r.Type.String() + "-" + strconv.Itoa(r.MHz)
		if byKey[k] == nil {
			byKey[k] = map[int]float64{}
		}
		byKey[k][r.UtilPct] = r.MW
	}
	for k, series := range byKey {
		prev := -1.0
		for u := 0; u <= 100; u += 20 {
			mw, ok := series[u]
			if !ok {
				t.Fatalf("%s: missing util %d", k, u)
			}
			if mw < prev-1 {
				t.Errorf("%s: power not monotone in utilization at %d%%", k, u)
			}
			prev = mw
		}
	}
	// Slope grows with frequency (Fig. 6's key claim).
	littleLow := byKey["little-500"][100] - byKey["little-500"][0]
	littleHigh := byKey["little-1300"][100] - byKey["little-1300"][0]
	if littleHigh <= littleLow*1.5 {
		t.Errorf("little slope at 1.3GHz (%.0f) not much steeper than 500MHz (%.0f)", littleHigh, littleLow)
	}
	bigLow := byKey["big-800"][100] - byKey["big-800"][0]
	bigHigh := byKey["big-1900"][100] - byKey["big-1900"][0]
	if bigHigh <= bigLow*1.5 {
		t.Errorf("big slope at 1.9GHz (%.0f) not much steeper than 800MHz (%.0f)", bigHigh, bigLow)
	}
	// Distinct power ranges per core type at full utilization.
	if byKey["big-800"][100] <= byKey["little-1300"][100] {
		t.Error("big and little power ranges overlap at full utilization")
	}
}

func TestCoreConfigsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := CoreConfigs(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12*7 {
		t.Fatalf("%d rows, want 84", len(rows))
	}
	byApp := map[string]map[string]CoreConfigRow{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]CoreConfigRow{}
		}
		byApp[r.App][r.Config.String()] = r
	}
	for app, cfgs := range byApp {
		// Little-only configurations must save power vs the L4+B4 baseline.
		if cfgs["L4"].PowerSavingPct < -2 {
			t.Errorf("%s: L4 config saving %.1f%%, want >= 0", app, cfgs["L4"].PowerSavingPct)
		}
		// For angry bird and video player, little-only costs almost no
		// performance (paper's §V-C finding).
		if app == "angry_bird" || app == "video_player" {
			if cfgs["L4"].PerfChangePct < -8 {
				t.Errorf("%s: L4 perf change %.1f%%, paper: no degradation", app, cfgs["L4"].PerfChangePct)
			}
		}
	}
	// For the big-core-dependent apps, L4 hurts and a single big core
	// recovers most of it (the paper's headline for Figures 7/8).
	for _, app := range []string{"encoder", "bbench"} {
		l4 := byApp[app]["L4"].PerfChangePct
		l4b1 := byApp[app]["L4+B1"].PerfChangePct
		if l4 > -10 {
			t.Errorf("%s: removing big cores only cost %.1f%%, want severe drop", app, l4)
		}
		if l4b1 < l4+5 {
			t.Errorf("%s: one big core did not recover performance (L4 %.1f%%, L4+B1 %.1f%%)", app, l4, l4b1)
		}
	}
}

func TestTuningStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := TuningStudy(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12*8 {
		t.Fatalf("%d rows, want 96", len(rows))
	}
	sum := SummarizeTuning(rows)
	if len(sum) != 8 {
		t.Fatalf("%d summaries, want 8", len(sum))
	}
	byName := map[string]TuningSummary{}
	for _, s := range sum {
		byName[s.Tuning] = s
		if s.MinSavingPct > s.AvgSavingPct || s.AvgSavingPct > s.MaxSavingPct {
			t.Errorf("%s: min/avg/max out of order: %+v", s.Tuning, s)
		}
	}
	// §VI-C: longer sampling intervals save power on average.
	if byName["interval60"].AvgSavingPct < 0 {
		t.Errorf("interval60 avg saving %.1f%%, paper ~2%%", byName["interval60"].AvgSavingPct)
	}
	// Aggressive HMP mostly increases power (negative saving).
	if byName["hmp_aggressive"].AvgSavingPct > 1.5 {
		t.Errorf("hmp_aggressive avg saving %.1f%%, paper: increases power", byName["hmp_aggressive"].AvgSavingPct)
	}
	// Weight-scale changes have only minor impact.
	for _, n := range []string{"weight_2x", "weight_half"} {
		if s := byName[n]; s.AvgSavingPct > 4 || s.AvgSavingPct < -4 {
			t.Errorf("%s avg saving %.1f%%, paper: minor impact", n, s.AvgSavingPct)
		}
	}
}

func TestCharacterize(t *testing.T) {
	res := Characterize(Options{Duration: 4 * event.Second, Seed: 1})
	if len(res) != 12 {
		t.Fatalf("%d results", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.App] = true
	}
	for _, app := range apps.All() {
		if !names[app.Name] {
			t.Errorf("missing app %s", app.Name)
		}
	}
}

func TestRenderers(t *testing.T) {
	o := Options{Duration: 3 * event.Second, Seed: 1, Instructions: 60_000}
	res := Characterize(o)
	for name, out := range map[string]string{
		"fig2":  RenderFig2(Fig2(o)),
		"fig3":  RenderFig3(Fig3(o)),
		"fig4":  RenderFig4(Fig4(o)),
		"fig5":  RenderFig5(Fig5(o)),
		"t3":    RenderTable3(res),
		"t4":    RenderTable4(res[0]),
		"t5":    RenderTable5(res),
		"fig9":  RenderResidency(res, platform.Little),
		"fig10": RenderResidency(res, platform.Big),
	} {
		if len(out) == 0 || !strings.Contains(out, "\n") {
			t.Errorf("%s: empty render", name)
		}
	}
	if !strings.Contains(RenderTable3(res), "pdf_reader") {
		t.Error("Table III render missing app names")
	}
	if out := RenderResidency(nil, platform.Little); !strings.Contains(out, "Figure 9") {
		t.Error("empty residency render lost its header")
	}
}

func TestTuningsComplete(t *testing.T) {
	ts := Tunings()
	if len(ts) != 8 {
		t.Fatalf("%d tunings, want the paper's 8", len(ts))
	}
	seen := map[string]bool{}
	for _, tn := range ts {
		if seen[tn.Name] {
			t.Fatalf("duplicate tuning %s", tn.Name)
		}
		seen[tn.Name] = true
		// Config holds the app's Build func, so only its Knobs compare.
		cfg := core.DefaultConfig(apps.All()[0])
		tn.Edit(&cfg)
		if reflect.DeepEqual(cfg.Knobs, core.DefaultKnobs()) {
			t.Errorf("%s changes no knob", tn.Name)
		}
	}
}

func TestTinyStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := TinyStudy(Options{Duration: 10 * event.Second, Seed: 1})
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, r := range rows {
		// The small-task-packing gate keeps interactivity essentially
		// intact: no app loses more than ~12% performance.
		if r.PerfChangePct < -12 {
			t.Errorf("%s: tiny cores cost %.1f%% performance", r.App, r.PerfChangePct)
		}
		if r.TinyShare <= 0 {
			t.Errorf("%s: tiny cores unused", r.App)
		}
	}
	// The min-state-dominated apps must actually save power.
	saved := 0
	for _, r := range rows {
		if r.BaselineMinPct > 85 && r.PowerSavingPct > 0 {
			saved++
		}
	}
	if saved < 3 {
		t.Errorf("only %d min-state-dominated apps saved power with tiny cores", saved)
	}
}

func TestSchedulerStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := SchedulerStudy(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12*4 {
		t.Fatalf("%d rows, want 48", len(rows))
	}
	byApp := map[string]map[string]SchedulerRow{}
	for _, r := range rows {
		if byApp[r.App] == nil {
			byApp[r.App] = map[string]SchedulerRow{}
		}
		byApp[r.App][r.Scheduler] = r
	}
	// §IV-A: the academic policies assume CPU-intensive workloads. For the
	// steady low-load games they burn extra power without any performance
	// gain, while HMP leaves them on little cores.
	for _, app := range []string{"angry_bird"} {
		eff := byApp[app]["efficiency"]
		if eff.PowerChangePct < 3 {
			t.Errorf("%s: efficiency-based policy power %+.1f%%, expected a clear increase", app, eff.PowerChangePct)
		}
		if eff.PerfChangePct > 5 {
			t.Errorf("%s: efficiency-based policy perf %+.1f%%, expected ~0 gain", app, eff.PerfChangePct)
		}
	}
	// Both alternative policies migrate far more than HMP overall.
	var hmpMigr, altMigr int
	for _, m := range byApp {
		hmpMigr += m["hmp"].Migrations
		altMigr += m["efficiency"].Migrations
	}
	if altMigr <= hmpMigr {
		t.Errorf("efficiency policy migrated less (%d) than HMP (%d)", altMigr, hmpMigr)
	}
	// No policy should catastrophically break any app.
	for app, m := range byApp {
		for pol, r := range m {
			if r.PerfChangePct < -30 {
				t.Errorf("%s under %s lost %.1f%% performance", app, pol, r.PerfChangePct)
			}
		}
	}
}

func TestGovernorStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := GovernorStudy(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12*4 {
		t.Fatalf("%d rows, want 48", len(rows))
	}
	perfGain, perfPower := 0.0, 0.0
	pastPerf, pastPower := 0.0, 0.0
	for _, r := range rows {
		switch r.Governor {
		case "performance":
			perfGain += r.PerfChangePct
			perfPower += r.PowerChangePct
		case "past":
			pastPerf += r.PerfChangePct
			pastPower += r.PowerChangePct
		}
	}
	// The performance governor is the upper bound: faster and hungrier on
	// average than interactive.
	if perfGain <= 0 || perfPower <= 0 {
		t.Errorf("performance governor avg deltas perf %+.1f power %+.1f, want both positive", perfGain/12, perfPower/12)
	}
	// PAST (no hispeed jump) trades performance for power on average —
	// exactly why the interactive governor exists.
	if pastPerf >= 0 {
		t.Errorf("PAST avg perf delta %+.1f, want negative", pastPerf/12)
	}
	if pastPower >= 0 {
		t.Errorf("PAST avg power delta %+.1f, want negative", pastPower/12)
	}
}

func TestIdleStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := IdleStudy(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Deep idle saves power for the idle-heavy players.
		if (r.App == "video_player" || r.App == "youtube") && r.PowerSavingPct < 10 {
			t.Errorf("%s: deep idle saved only %.1f%%", r.App, r.PowerSavingPct)
		}
		// And never catastrophically breaks performance.
		if r.PerfChangePct < -30 {
			t.Errorf("%s: deep idle cost %.1f%% performance", r.App, r.PerfChangePct)
		}
	}
}

func TestThermalStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long runs")
	}
	rows := ThermalStudy(Options{Duration: 12 * event.Second, Seed: 1})
	var stressThrottled, appsThrottled float64
	for _, r := range rows {
		if r.App == "stress_4" {
			stressThrottled += r.ThrottledPct
		} else {
			appsThrottled += r.ThrottledPct
		}
	}
	// The stress workload must throttle heavily...
	if stressThrottled < 100 {
		t.Errorf("stress rows throttled only %.1f%% total", stressThrottled)
	}
	// ...while the interactive apps never sustain enough power to trip.
	if appsThrottled > 10 {
		t.Errorf("interactive apps throttled %.1f%% total; they should stay cool", appsThrottled)
	}
}

func TestBatteryStudyShape(t *testing.T) {
	rows := BatteryStudy(Options{Duration: 6 * event.Second, Seed: 1})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string]BatteryRow{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Hours <= 0 || r.AvgMW <= 0 {
			t.Errorf("%s: degenerate row %+v", r.App, r)
		}
		if r.HungriestThread == "" {
			t.Errorf("%s: no energy attribution", r.App)
		}
		if r.ThreadEnergyPct < 0 || r.ThreadEnergyPct > 100 {
			t.Errorf("%s: thread share %.1f%%", r.App, r.ThreadEnergyPct)
		}
	}
	// The CPU-heavy apps drain fastest.
	if byApp["bbench"].Hours >= byApp["browser"].Hours {
		t.Error("bbench should drain the battery faster than the browser")
	}
	// Encoder's energy concentrates in its worker thread.
	if byApp["encoder"].ThreadEnergyPct < 80 {
		t.Errorf("encoder worker share %.1f%%, want dominant", byApp["encoder"].ThreadEnergyPct)
	}
}

func TestMultitaskStudyShape(t *testing.T) {
	rows := MultitaskStudy(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Adding a background app always costs power and raises TLP.
		if r.PowerIncreasePct <= 0 {
			t.Errorf("%s: background app reduced power (%.1f%%)", r.Scenario, r.PowerIncreasePct)
		}
		if r.TLP <= r.TLPAlone {
			t.Errorf("%s: TLP %.2f did not rise over alone %.2f", r.Scenario, r.TLP, r.TLPAlone)
		}
		// The 8-core platform absorbs the background app without wrecking
		// the foreground.
		if r.PerfChangePct < -25 {
			t.Errorf("%s: foreground lost %.1f%%", r.Scenario, r.PerfChangePct)
		}
	}
}

func TestSeedStatsShape(t *testing.T) {
	rows := SeedStats(Options{Duration: 4 * event.Second, Seed: 1}, 3)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TLP.N != 3 {
			t.Errorf("%s: N = %d", r.App, r.TLP.N)
		}
		if r.TLP.Min > r.TLP.Mean || r.TLP.Mean > r.TLP.Max {
			t.Errorf("%s: stat ordering broken %+v", r.App, r.TLP)
		}
		if r.TLP.Std < 0 {
			t.Errorf("%s: negative std", r.App)
		}
		if r.PowerMW.Mean < 250 {
			t.Errorf("%s: power mean %.0f below base", r.App, r.PowerMW.Mean)
		}
	}
}

func TestStatMath(t *testing.T) {
	s := newStat([]float64{1, 2, 3})
	if s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Fatalf("stat %+v", s)
	}
	if s.Std != 1 {
		t.Fatalf("std %f, want 1 (sample std of 1,2,3)", s.Std)
	}
	if z := newStat(nil); z.N != 0 || z.Mean != 0 {
		t.Fatalf("empty stat %+v", z)
	}
	if s.String() == "" {
		t.Fatal("empty render")
	}
}

func TestPredictorStudyShape(t *testing.T) {
	rows := PredictorStudy(Options{Instructions: 60_000, Duration: event.Second})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Bimodal > r.Static+0.02 {
			t.Errorf("%s: bimodal (%.3f) worse than static (%.3f)", r.Workload, r.Bimodal, r.Static)
		}
		if r.Tournament > r.Bimodal*1.05 {
			t.Errorf("%s: tournament (%.3f) worse than bimodal (%.3f)", r.Workload, r.Tournament, r.Bimodal)
		}
	}
}

func TestFidelityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration characterization")
	}
	rows := Fidelity(Options{Duration: 15 * event.Second, Seed: 1})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	s := SummarizeFidelity(rows)
	if s.MeanTLPErr > 0.35 {
		t.Errorf("mean TLP error %.2f too large", s.MeanTLPErr)
	}
	if s.MeanBigErr > 8 {
		t.Errorf("mean big%% error %.1f pp too large", s.MeanBigErr)
	}
	if s.MeanIdleErr > 6 {
		t.Errorf("mean idle error %.1f pp too large", s.MeanIdleErr)
	}
	if s.MeanMatrixTVD > 0.45 {
		t.Errorf("mean Table IV TVD %.3f too large", s.MeanMatrixTVD)
	}
	for _, r := range rows {
		if r.MatrixTVD < 0 || r.MatrixTVD > 1 {
			t.Errorf("%s: TVD %.3f out of range", r.App, r.MatrixTVD)
		}
	}
}

func TestMatrixTVDProperties(t *testing.T) {
	var a [5][5]float64
	a[0][0] = 100
	if d := matrixTVD(a, a); d != 0 {
		t.Fatalf("self distance %f", d)
	}
	var b [5][5]float64
	b[4][4] = 50 // scale must not matter
	if d := matrixTVD(a, b); math.Abs(d-1) > 1e-9 {
		t.Fatalf("disjoint distance %f, want 1", d)
	}
	var zero [5][5]float64
	if d := matrixTVD(a, zero); d != 1 {
		t.Fatalf("empty distance %f", d)
	}
}

func TestEDPShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large sweep")
	}
	rows := EDP(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 12*4 {
		t.Fatalf("%d rows", len(rows))
	}
	best := map[string]int{}
	perApp := map[string]int{}
	for _, r := range rows {
		if r.EDP < 0 {
			t.Errorf("%s/%s: negative EDP", r.App, r.Config)
		}
		if r.Best {
			best[r.Config]++
			perApp[r.App]++
		}
	}
	for app, n := range perApp {
		if n != 1 {
			t.Errorf("%s: %d best configs", app, n)
		}
	}
	// The paper's §V-C: little-only and single-big configurations are the
	// efficiency sweet spots; the full L4+B4 should win at most rarely.
	if best["L4"]+best["L4+B1"] < 8 {
		t.Errorf("L4/L4+B1 won only %d apps: %v", best["L4"]+best["L4+B1"], best)
	}
}

func TestCacheSweepShape(t *testing.T) {
	rows := CacheSweep(Options{Instructions: 100_000, Duration: event.Second})
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]CacheSweepRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		// Growing the little L2 never increases the big core's advantage
		// (allowing small measurement jitter).
		prev := 1e18
		for _, kb := range []int{256, 512, 1024, 2048} {
			sp := r.SpeedupAt[kb]
			if sp <= 0 {
				t.Errorf("%s: degenerate speedup at %dK", r.Workload, kb)
			}
			if sp > prev*1.03 {
				t.Errorf("%s: speedup rose when the little L2 grew (%.2f -> %.2f at %dK)",
					r.Workload, prev, sp, kb)
			}
			prev = sp
		}
	}
	// mcf's gap must collapse with an equal 2MB L2 while hmmer barely moves
	// — the paper's cache-sensitivity attribution.
	mcf := byName["mcf"]
	if mcf.SpeedupAt[512]/mcf.SpeedupAt[2048] < 2 {
		t.Errorf("mcf gap did not collapse: %.2f @512K vs %.2f @2048K",
			mcf.SpeedupAt[512], mcf.SpeedupAt[2048])
	}
	hmmer := byName["hmmer"]
	if hmmer.SpeedupAt[512]/hmmer.SpeedupAt[2048] > 1.2 {
		t.Errorf("hmmer moved with L2 size: %.2f @512K vs %.2f @2048K",
			hmmer.SpeedupAt[512], hmmer.SpeedupAt[2048])
	}
}

func TestSummaryFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several studies")
	}
	f := Summarize(Options{Duration: 8 * event.Second, Seed: 1, Instructions: 80_000})
	if f.MaxSameFreqSpeedup < 3.5 || f.BigLittlePowerX < 2 {
		t.Errorf("architectural findings off: %+v", f)
	}
	if f.MaxTLP < 3 || f.AppsBelowTLP3 < 10 {
		t.Errorf("TLP findings off: %+v", f)
	}
	if f.MeanLittleUtil > 0.5 {
		t.Errorf("mean little utilization %.2f not low", f.MeanLittleUtil)
	}
	if f.WorstLittleOnlyDropPct > -10 || f.SingleBigRecoveryPct < 50 {
		t.Errorf("core-config findings off: %+v", f)
	}
	if f.MeanMinStatePct < 30 || f.MeanLowUtilStatesPct < 50 {
		t.Errorf("efficiency findings off: %+v", f)
	}
	if len(RenderSummary(f)) < 100 {
		t.Fatal("summary too short")
	}
}

func TestCrossPlatformShape(t *testing.T) {
	if testing.Short() {
		t.Skip("two-platform sweep")
	}
	rows := CrossPlatform(Options{Duration: 8 * event.Second, Seed: 1})
	if len(rows) != 24 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		ex, sd := rows[i], rows[i+1]
		if ex.Platform != "exynos5422" || sd.Platform != "snapdragon810" {
			t.Fatalf("row ordering broken at %d", i)
		}
		// The faster clusters never make an app much slower. (A mild
		// latency regression is real: the SD810 preset idles at a lower
		// 400 MHz floor, so bursts ramp from further down.)
		if sd.PerfChangePct < -20 {
			t.Errorf("%s: slower on the faster SoC (%.1f%%)", sd.App, sd.PerfChangePct)
		}
		if sd.BigPct < 0 || sd.BigPct > 100 {
			t.Errorf("%s: big share %.1f", sd.App, sd.BigPct)
		}
	}
}
