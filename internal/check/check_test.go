package check

import (
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
)

func quickConfig(app apps.App, dur event.Time) core.Config {
	cfg := core.DefaultConfig(app)
	cfg.Duration = dur
	return cfg
}

func TestAuditorCleanRun(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	aud := New()
	cfg := quickConfig(app, 2*event.Second)
	cfg.Check = aud
	core.Run(cfg)

	rep := aud.Report()
	if !rep.Ok() {
		t.Fatalf("clean run reported violations:\n%s", rep)
	}
	if aud.Err() != nil {
		t.Fatalf("Err() = %v on a clean run", aud.Err())
	}
	if rep.Ticks == 0 || rep.Samples == 0 || rep.Checks == 0 {
		t.Fatalf("auditor did not observe the run: %+v", rep)
	}
	// The integral mirrors the meter's accumulation order, so a healthy run
	// agrees bit for bit — far inside the 0.1% tolerance.
	if rep.EnergyMeterMJ != rep.EnergyIntegralMJ {
		t.Errorf("energy meter %v != independent integral %v", rep.EnergyMeterMJ, rep.EnergyIntegralMJ)
	}
	if rep.EnergyMeterMJ <= 0 {
		t.Errorf("no energy metered: %+v", rep)
	}
	if !strings.Contains(rep.String(), "check: ok") {
		t.Errorf("report string missing ok status:\n%s", rep)
	}
}

// TestAuditorAllAppsAllConfigs is the acceptance sweep: every bundled app on
// every §V-C hotplug configuration, audited, with zero violations.
func TestAuditorAllAppsAllConfigs(t *testing.T) {
	dur := 2 * event.Second
	if testing.Short() {
		dur = 500 * event.Millisecond
	}
	for _, app := range apps.All() {
		for _, cc := range platform.StudyConfigs() {
			aud := New()
			cfg := quickConfig(app, dur)
			cfg.Cores = cc
			cfg.Check = aud
			r := core.Run(cfg)
			if err := aud.Err(); err != nil {
				t.Errorf("%s on %v: %v\n%s", app.Name, cc, err, aud.Report())
			}
			if vs := CheckResult(r); len(vs) != 0 {
				t.Errorf("%s on %v: result self-check failed: %v", app.Name, cc, vs)
			}
		}
	}
}

// TestAuditorPureObserver is the property lab's audit mode relies on: an
// audited run produces exactly the same Result as an unaudited one.
func TestAuditorPureObserver(t *testing.T) {
	app, err := apps.ByName("angry_bird")
	if err != nil {
		t.Fatal(err)
	}
	plain := core.Run(quickConfig(app, 2*event.Second))
	cfg := quickConfig(app, 2*event.Second)
	cfg.Check = New()
	audited := core.Run(cfg)
	if !reflect.DeepEqual(plain, audited) {
		t.Fatalf("audited run diverged from unaudited run:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// TestAuditorDetectsCorruption injects an illegal cluster frequency mid-run
// through the OnSystem extension point and expects the auditor to flag it.
func TestAuditorDetectsCorruption(t *testing.T) {
	app, err := apps.ByName("pdf_reader")
	if err != nil {
		t.Fatal(err)
	}
	aud := New()
	cfg := quickConfig(app, 1*event.Second)
	cfg.Check = aud
	cfg.OnSystem = func(sys *sched.System) {
		// Half a tick off any governor sample point, so the corruption
		// survives until the next tick's audit instead of being overwritten
		// by a governor decision first.
		sys.Eng.After(500*event.Millisecond+500*event.Microsecond, func(now event.Time) {
			sys.SoC.Clusters[0].CurMHz = 12345 // not in any frequency table
		})
	}
	core.Run(cfg)

	rep := aud.Report()
	if rep.Ok() {
		t.Fatal("auditor missed an illegal cluster frequency")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "freq-table" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a freq-table violation, got:\n%s", rep)
	}
	if aud.Err() == nil {
		t.Fatal("Err() = nil despite violations")
	}
	if !strings.Contains(rep.String(), "VIOLATIONS") {
		t.Errorf("report string missing violation status:\n%s", rep)
	}
}

// TestAuditorViolationCap: a persistently broken run must not accumulate
// unbounded violations.
func TestAuditorViolationCap(t *testing.T) {
	app, err := apps.ByName("pdf_reader")
	if err != nil {
		t.Fatal(err)
	}
	aud := New()
	cfg := quickConfig(app, 1*event.Second)
	cfg.Check = aud
	cfg.OnSystem = func(sys *sched.System) {
		// Broken from the first tick on, and again after every tick: the
		// governor's first step restores a legal frequency, and the run
		// must outlast the cap.
		sys.SoC.Clusters[0].CurMHz = 12345
		sys.OnTick(func(event.Time) { sys.SoC.Clusters[0].CurMHz = 12345 })
	}
	core.Run(cfg)

	rep := aud.Report()
	if len(rep.Violations) != DefaultMaxViolations {
		t.Fatalf("recorded %d violations, want cap of %d", len(rep.Violations), DefaultMaxViolations)
	}
	if rep.Dropped == 0 {
		t.Fatal("no dropped violations counted beyond the cap")
	}
}

// TestFinishReconciliation drives Finish directly against a bare system to
// exercise the end-of-run checks without a workload.
func TestFinishReconciliation(t *testing.T) {
	eng := event.New()
	soc := platform.Exynos5422()
	sys := sched.New(eng, soc, sched.DefaultConfig())
	sys.Start()
	aud := New()
	aud.Attach(sys, power.Default())
	eng.Run(100 * event.Millisecond)

	// A wildly wrong meter reading must trip the energy reconciliation.
	aud.Finish(100*event.Millisecond, 1e9)
	rep := aud.Report()
	if rep.Ok() {
		t.Fatal("Finish accepted a meter reading 1e9 mJ away from the integral")
	}
	if rep.Violations[0].Invariant != "energy-integral" {
		t.Fatalf("expected energy-integral violation, got %v", rep.Violations[0])
	}

	// Finish is idempotent: a second call with different numbers is ignored.
	before := aud.Report()
	aud.Finish(200*event.Millisecond, 0)
	after := aud.Report()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("second Finish changed the report:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

func TestAuditorNilSafety(t *testing.T) {
	var aud *Auditor
	aud.Attach(nil, power.Params{}) // must not panic
	aud.Finish(event.Second, 0)
	if rep := aud.Report(); !rep.Ok() {
		t.Fatalf("nil auditor report not ok: %+v", rep)
	}
	if aud.Err() != nil {
		t.Fatalf("nil auditor Err() = %v", aud.Err())
	}

	// The typed-nil interface trap: a nil *Auditor stored in Config.Check is
	// a non-nil interface, so Run calls its methods — they must no-op.
	app, err := apps.ByName("pdf_reader")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(app, 200*event.Millisecond)
	cfg.Check = aud
	core.Run(cfg) // must not panic
}

func TestAuditorDoubleAttach(t *testing.T) {
	eng := event.New()
	soc := platform.Exynos5422()
	sys := sched.New(eng, soc, sched.DefaultConfig())
	sys.Start()
	sampler := metrics.NewSampler(sys, power.Default())
	sampler.Start()
	aud := New()
	aud.Attach(sys, power.Default())
	aud.Attach(sys, power.Default()) // ignored: one auditor observes one run
	eng.Run(50 * event.Millisecond)
	aud.Finish(50*event.Millisecond, sampler.EnergyMJ())
	rep := aud.Report()
	if !rep.Ok() {
		t.Fatalf("double attach corrupted the audit:\n%s", rep)
	}
	// One sampling chain, not two: 50 ms / 10 ms = 5 samples.
	if rep.Samples != 5 {
		t.Fatalf("got %d samples over 50 ms, want 5 (double attach must not double-sample)", rep.Samples)
	}
}

func TestCheckResult(t *testing.T) {
	app, err := apps.ByName("browser")
	if err != nil {
		t.Fatal(err)
	}
	res := core.Run(quickConfig(app, 2*event.Second))
	if vs := CheckResult(res); len(vs) != 0 {
		t.Fatalf("clean result reported violations: %v", vs)
	}

	corrupt := []struct {
		name      string
		invariant string
		mutate    func(*core.Result)
	}{
		{"negative energy", "result-energy", func(r *core.Result) { r.EnergyMJ = -1 }},
		{"energy power mismatch", "result-energy", func(r *core.Result) { r.AvgPowerMW *= 2 }},
		{"residency length", "result-little-residency", func(r *core.Result) { r.LittleResidency = r.LittleResidency[:1] }},
		{"migration mismatch", "result-migrations", func(r *core.Result) { r.HMPMigrations++ }},
		{"mean above worst", "result-latency", func(r *core.Result) { r.MeanLatency = r.WorstLatency + event.Second }},
		{"throttled range", "result-thermal", func(r *core.Result) { r.ThrottledPct = 150 }},
		{"tlp range", "result-tlp", func(r *core.Result) { r.TLP.TLP = -3 }},
		{"util range", "result-util", func(r *core.Result) { r.AvgBigUtil = 1.5 }},
		{"fps mismatch", "result-fps", func(r *core.Result) { r.Frames += 1000 }},
		{"duration", "result-duration", func(r *core.Result) { r.Duration = 0 }},
	}
	for _, tc := range corrupt {
		r := res
		tc.mutate(&r)
		vs := CheckResult(r)
		found := false
		for _, v := range vs {
			if v.Invariant == tc.invariant {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: expected a %s violation, got %v", tc.name, tc.invariant, vs)
		}
	}
}

// TestCheckResultSession checks a real session's rows against its whole-run
// fields, then tampers one row per identity CheckResult holds them to.
func TestCheckResultSession(t *testing.T) {
	var phases []core.Phase
	for _, name := range []string{"browser", "eternity_warrior", "video_player"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, core.Phase{App: app, Duration: 2 * event.Second})
	}
	res := core.Run(core.Config{Seed: 1, Phases: phases, Knobs: core.DefaultKnobs()})
	if len(res.Phases) != len(phases) {
		t.Fatalf("%d rows for %d phases", len(res.Phases), len(phases))
	}
	if vs := CheckResult(res); len(vs) != 0 {
		t.Fatalf("clean session reported violations: %v", vs)
	}

	tamper := []struct {
		name      string
		invariant string
		mutate    func(*core.PhaseResult)
	}{
		// Row 1 keeps its own power identity, so only the sum breaks.
		{"duration sum", "result-phase-duration", func(p *core.PhaseResult) {
			p.Duration += event.Millisecond
			p.AvgPowerMW = p.EnergyJ * 1000 / p.Duration.Seconds()
		}},
		{"energy sum", "result-phase-energy", func(p *core.PhaseResult) { p.EnergyJ *= 1.01; p.AvgPowerMW *= 1.01 }},
		{"row power", "result-phase-power", func(p *core.PhaseResult) { p.AvgPowerMW *= 1.000001 }},
		{"big share above 100", "result-phase-range", func(p *core.PhaseResult) { p.BigPct = 100.5 }},
		{"negative big share", "result-phase-range", func(p *core.PhaseResult) { p.BigPct = -0.5 }},
		{"negative drain", "result-phase-range", func(p *core.PhaseResult) { p.DrainPct = -0.01 }},
	}
	for _, tc := range tamper {
		r := res
		r.Phases = append([]core.PhaseResult(nil), res.Phases...)
		tc.mutate(&r.Phases[1])
		var got []string
		for _, v := range CheckResult(r) {
			got = append(got, v.Invariant)
		}
		if len(got) != 1 || got[0] != tc.invariant {
			t.Errorf("%s: want exactly a %s violation, got %v", tc.name, tc.invariant, got)
		}
	}
}

// BenchmarkAuditorOff/On quantify the auditor's cost: Off is the one
// pointer-check-per-site disabled path (the "no measurable overhead"
// acceptance bar), On the full invariant sweep.
func benchmarkRun(b *testing.B, audit bool) {
	app, err := apps.ByName("eternity_warrior")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := quickConfig(app, 4*event.Second)
		if audit {
			cfg.Check = New()
		}
		core.Run(cfg)
	}
}

func BenchmarkAuditorOff(b *testing.B) { benchmarkRun(b, false) }
func BenchmarkAuditorOn(b *testing.B)  { benchmarkRun(b, true) }
