package biglittle_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biglittle"
)

// quick options exercise every facade driver end to end at minimal cost.
var quick = biglittle.ExperimentOptions{Duration: 2 * biglittle.Second, Seed: 1, Instructions: 30_000}

// driverGolden is one driver's render followed by its rows at full
// precision, one per line.
func driverGolden[T any](rows []T, render func([]T) string) string {
	var b strings.Builder
	b.WriteString(render(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	return b.String()
}

// TestFacadeDriversRender pins eighteen drivers' renders and rows at the
// quick options byte for byte against testdata/drivers.golden;
// `go test -run TestFacadeDriversRender -golden-update .` rewrites it.
func TestFacadeDriversRender(t *testing.T) {
	if testing.Short() {
		t.Skip("facade sweep")
	}
	drivers := []struct {
		name string
		run  func() string
	}{
		{"fig2", func() string { return driverGolden(biglittle.Fig2(quick), biglittle.RenderFig2) }},
		{"fig3", func() string { return driverGolden(biglittle.Fig3(quick), biglittle.RenderFig3) }},
		{"fig4", func() string { return driverGolden(biglittle.Fig4(quick), biglittle.RenderFig4) }},
		{"fig5", func() string { return driverGolden(biglittle.Fig5(quick), biglittle.RenderFig5) }},
		{"tuning", func() string { return driverGolden(biglittle.TuningStudy(quick), biglittle.RenderTuning) }},
		{"coreconfig", func() string { return driverGolden(biglittle.CoreConfigs(quick), biglittle.RenderCoreConfigs) }},
		{"tiny", func() string { return driverGolden(biglittle.TinyStudy(quick), biglittle.RenderTiny) }},
		{"sched", func() string { return driverGolden(biglittle.SchedulerStudy(quick), biglittle.RenderSchedulers) }},
		{"gov", func() string { return driverGolden(biglittle.GovernorStudy(quick), biglittle.RenderGovernors) }},
		{"idle", func() string { return driverGolden(biglittle.IdleStudy(quick), biglittle.RenderIdle) }},
		{"thermal", func() string { return driverGolden(biglittle.ThermalStudy(quick), biglittle.RenderThermal) }},
		{"battery", func() string { return driverGolden(biglittle.BatteryStudy(quick), biglittle.RenderBattery) }},
		{"multitask", func() string { return driverGolden(biglittle.MultitaskStudy(quick), biglittle.RenderMultitask) }},
		{"seeds", func() string { return driverGolden(biglittle.SeedStats(quick, 2), biglittle.RenderSeedStats) }},
		{"pred", func() string { return driverGolden(biglittle.PredictorStudy(quick), biglittle.RenderPredictors) }},
		{"edp", func() string { return driverGolden(biglittle.EDP(quick), biglittle.RenderEDP) }},
		{"crossplatform", func() string { return driverGolden(biglittle.CrossPlatform(quick), biglittle.RenderCrossPlatform) }},
		{"fidelity", func() string { return driverGolden(biglittle.Fidelity(quick), biglittle.RenderFidelity) }},
	}
	var b strings.Builder
	for _, d := range drivers {
		out := d.run()
		if len(out) == 0 || !strings.Contains(out, "\n") {
			t.Errorf("%s: empty render", d.name)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", d.name, out)
	}
	got := b.String()

	path := filepath.Join("testdata", "drivers.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no %s (regenerate with -golden-update): %v", path, err)
	}
	if explain := biglittle.ExplainTextDiff(string(want), got); explain != "" {
		t.Fatalf("driver outputs moved: %s", explain)
	}
}

func TestFacadeCharacterizeAndResidency(t *testing.T) {
	results := biglittle.Characterize(quick)
	if len(results) != 12 {
		t.Fatalf("%d results", len(results))
	}
	for _, render := range []string{
		biglittle.RenderTable3(results),
		biglittle.RenderTable4(results[0]),
		biglittle.RenderTable5(results),
		biglittle.RenderLittleResidency(results),
		biglittle.RenderBigResidency(results),
	} {
		if len(render) == 0 {
			t.Fatal("empty render")
		}
	}
}

func TestFacadeSession(t *testing.T) {
	app, _ := biglittle.AppByName("youtube")
	r := biglittle.RunSession(biglittle.NewSession(
		biglittle.SessionPhase{App: app, Duration: 2 * biglittle.Second},
	))
	if len(r.Phases) != 1 || r.TotalEnergyJ <= 0 {
		t.Fatalf("session %+v", r)
	}
	if !strings.Contains(biglittle.RenderSession(r), "youtube") {
		t.Fatal("render")
	}
	if biglittle.GalaxyS5Pack().HoursAt(r.AvgPowerMW) <= 0 {
		t.Fatal("battery estimate")
	}
}

func TestFacadeThermalAndStress(t *testing.T) {
	cfg := biglittle.DefaultConfig(biglittle.Stress(4))
	cfg.Duration = 10 * biglittle.Second
	par := biglittle.DefaultThermal()
	cfg.Thermal = &par
	r := biglittle.Run(cfg)
	if r.MaxTempC <= par.AmbientC {
		t.Fatalf("stress never heated the die (%.1fC)", r.MaxTempC)
	}
	if r.TotalWorkGc <= 0 {
		t.Fatal("no work")
	}
}

func TestFacadeTraceAttach(t *testing.T) {
	app, _ := biglittle.AppByName("angry_bird")
	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = 2 * biglittle.Second
	var rec *biglittle.TraceRecorder
	cfg.OnSystem = func(sys *biglittle.SchedSystem) {
		rec = biglittle.AttachTrace(sys, 0, biglittle.Second)
	}
	biglittle.Run(cfg)
	if rec == nil || len(rec.Samples) == 0 {
		t.Fatal("trace recorder captured nothing")
	}
	if out := rec.Render(80); !strings.Contains(out, "cpu0") {
		t.Fatal("trace render")
	}
	if data, err := rec.ChromeTrace(); err != nil || len(data) == 0 {
		t.Fatalf("chrome trace: %v", err)
	}
}

// TestSessionPhaseMustLastLongerThanZero pins that a session phase of zero
// or negative length, first, middle or last, panics at assembly with a
// message that names the phase, through every way to run a session, and
// that the lab reports the panic as the job's error.
func TestSessionPhaseMustLastLongerThanZero(t *testing.T) {
	browser, err := biglittle.AppByName("browser")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(t *testing.T, want string, run func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if p := recover(); p == nil {
				t.Errorf("no panic, want one naming %q", want)
			} else if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
				t.Errorf("panic %q does not name %q", msg, want)
			}
		}()
		run()
	}
	for _, d := range []biglittle.Time{0, -biglittle.Second} {
		for i := 0; i < 3; i++ {
			phases := []biglittle.SessionPhase{
				{App: browser, Duration: biglittle.Second},
				{App: browser, Duration: biglittle.Second},
				{App: browser, Duration: biglittle.Second},
			}
			phases[i].Duration = d
			cfg := biglittle.NewSession(phases...)
			want := fmt.Sprintf("phase %d (browser) lasts %v", i, d)
			t.Run(want, func(t *testing.T) {
				mustPanic(t, want, func() { biglittle.Run(cfg) })
				mustPanic(t, want, func() { biglittle.RunSession(cfg) })
				mustPanic(t, want, func() { biglittle.NewLiveSession(cfg) })
				if _, err := biglittle.NewLabRunner(1, nil).Run(biglittle.LabJob{Config: cfg}); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("lab error %v does not name %q", err, want)
				}
			})
		}
	}
}
