package session

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/power"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/xray"
)

// phased returns a session of phases on the paper's baseline platform.
func phased(phases ...core.Phase) core.Config {
	return core.Config{Seed: 1, Phases: phases, Knobs: core.DefaultKnobs()}
}

func mustApp(t *testing.T, name string) apps.App {
	t.Helper()
	a, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSessionPhases(t *testing.T) {
	cfg := phased(
		core.Phase{App: mustApp(t, "browser"), Duration: 5 * event.Second},
		core.Phase{App: mustApp(t, "video_player"), Duration: 5 * event.Second},
		core.Phase{App: mustApp(t, "eternity_warrior"), Duration: 5 * event.Second},
	)
	r := Run(cfg)
	if len(r.Phases) != 3 {
		t.Fatalf("%d phases", len(r.Phases))
	}
	if r.Duration != 15*event.Second {
		t.Fatalf("duration %v", r.Duration)
	}
	// Per-phase energies sum to the total.
	sum := 0.0
	for _, p := range r.Phases {
		sum += p.EnergyJ
		if p.AvgPowerMW < 250 {
			t.Errorf("%s: phase power %.0f below base rail", p.App, p.AvgPowerMW)
		}
	}
	if math.Abs(sum-r.TotalEnergyJ) > 1e-9 {
		t.Fatalf("phase energies %.3f != total %.3f", sum, r.TotalEnergyJ)
	}
	// Each phase reports its own app's metrics.
	if r.Phases[0].Interactions == 0 {
		t.Error("browser phase recorded no page loads")
	}
	if r.Phases[1].AvgFPS < 20 {
		t.Errorf("video phase FPS %.1f", r.Phases[1].AvgFPS)
	}
	if r.Phases[2].AvgFPS < 30 {
		t.Errorf("game phase FPS %.1f", r.Phases[2].AvgFPS)
	}
	// The game phase burns more than the browser phase.
	if r.Phases[2].AvgPowerMW <= r.Phases[0].AvgPowerMW {
		t.Errorf("game %.0f mW <= browser %.0f mW", r.Phases[2].AvgPowerMW, r.Phases[0].AvgPowerMW)
	}
	if r.TotalDrainPct <= 0 {
		t.Fatal("no battery drain")
	}
}

func TestSessionDeterministic(t *testing.T) {
	mk := func() Result {
		return Run(phased(
			core.Phase{App: mustApp(t, "pdf_reader"), Duration: 3 * event.Second},
			core.Phase{App: mustApp(t, "angry_bird"), Duration: 3 * event.Second},
		))
	}
	a, b := mk(), mk()
	if a.TotalEnergyJ != b.TotalEnergyJ {
		t.Fatal("session nondeterministic")
	}
}

func TestSessionEmpty(t *testing.T) {
	r := Run(core.Config{})
	if len(r.Phases) != 0 || r.TotalEnergyJ != 0 {
		t.Fatalf("empty session %+v", r)
	}
}

func TestSessionRender(t *testing.T) {
	r := Run(phased(
		core.Phase{App: mustApp(t, "youtube"), Duration: 3 * event.Second},
	))
	out := Render(r)
	if !strings.Contains(out, "youtube") || !strings.Contains(out, "total") {
		t.Fatalf("render:\n%s", out)
	}
}

// Phase boundaries do not leak workload activity: a heavy phase followed by
// a quiet one ends up quiet (generators stop at their phase end).
func TestPhaseIsolation(t *testing.T) {
	r := Run(phased(
		core.Phase{App: mustApp(t, "bbench"), Duration: 5 * event.Second},
		core.Phase{App: mustApp(t, "browser"), Duration: 5 * event.Second},
	))
	if r.Phases[1].AvgPowerMW > r.Phases[0].AvgPowerMW/1.5 {
		t.Errorf("quiet phase %.0f mW vs heavy phase %.0f mW: bbench leaked",
			r.Phases[1].AvgPowerMW, r.Phases[0].AvgPowerMW)
	}
}

// TestRunRowsAreCoreRows pins that a session is a run: core.Run of the
// session's config closes the same rows session.Run reports, thermal model
// and all five observers attached.
func TestRunRowsAreCoreRows(t *testing.T) {
	cfg := func() core.Config {
		c := phased(
			core.Phase{App: mustApp(t, "browser"), Duration: 2 * event.Second},
			core.Phase{App: mustApp(t, "eternity_warrior"), Duration: 2 * event.Second},
			core.Phase{App: mustApp(t, "video_player"), Duration: 2 * event.Second},
		)
		th := thermal.Default()
		c.Thermal = &th
		c.Telemetry, c.Profiler, c.Xray = telemetry.NewCollector(), profile.New(), xray.New()
		c.Check, c.Digest = check.New(), &delta.Recorder{}
		return c
	}
	want, err := json.Marshal(Run(cfg()).Phases)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(core.Run(cfg()).Phases)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("core.Run rows differ from session.Run's:\ncore    %s\nsession %s", got, want)
	}
}

// TestLiveTakesKnobs pins that NewLive hands the session's core.Knobs to
// core.Assemble whole, including the ones no session flag sets: on the
// Snapdragon under the performance governor, both clusters sit at their
// maximum frequency in every phase, across the switch.
func TestLiveTakesKnobs(t *testing.T) {
	cfg := phased(
		core.Phase{App: mustApp(t, "browser"), Duration: 500 * event.Millisecond},
		core.Phase{App: mustApp(t, "bbench"), Duration: 500 * event.Millisecond},
	)
	cfg.Governor = core.Performance
	cfg.Platform = "snapdragon810"
	cfg.Power = power.Snapdragon810Params()
	live := NewLive(cfg)
	if name := live.Sys.SoC.Name; name != "snapdragon810" {
		t.Fatalf("session assembled SoC %q, want snapdragon810", name)
	}
	for _, at := range []event.Time{250 * event.Millisecond, 750 * event.Millisecond, live.Duration()} {
		live.Advance(at)
		for _, cl := range live.Sys.SoC.Clusters {
			if cl.CurMHz != cl.MaxMHz() {
				t.Fatalf("at %v: cluster %d at %d MHz, want its max %d", at, cl.ID, cl.CurMHz, cl.MaxMHz())
			}
		}
	}
	if !live.Done() {
		t.Fatal("session did not finish")
	}
}

// TestLiveReportsProgress: from the first phase's end on, Live names the
// next phase and reports the closed rows without session totals; once done
// it names none, and a further Advance changes nothing.
func TestLiveReportsProgress(t *testing.T) {
	live := NewLive(phased(
		core.Phase{App: mustApp(t, "browser"), Duration: event.Second},
		core.Phase{App: mustApp(t, "bbench"), Duration: event.Second},
	))
	if got := live.Phase(); got != "browser" {
		t.Errorf("before the first step, phase %q, want browser", got)
	}
	for _, at := range []event.Time{event.Second, 1500 * event.Millisecond} {
		if live.Advance(at) {
			t.Fatalf("done at %v of a 2 s session", at)
		}
		if got := live.Phase(); got != "bbench" {
			t.Errorf("at %v, phase %q, want bbench", at, got)
		}
		if r := live.Result(); len(r.Phases) != 1 || r.TotalEnergyJ != r.Phases[0].EnergyJ || r.TotalDrainPct != 0 {
			t.Errorf("at %v, result %+v, want the browser row and no totals", at, r)
		}
	}
	if !live.Advance(live.Duration()) || live.Phase() != "" {
		t.Fatalf("at the end: done %v, phase %q", live.Done(), live.Phase())
	}
	done := live.Result()
	if !live.Advance(live.Duration()+event.Second) || !reflect.DeepEqual(live.Result(), done) {
		t.Errorf("an Advance after the end changed the result: %+v, was %+v", live.Result(), done)
	}
}
