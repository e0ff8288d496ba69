package core

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"biglittle/internal/apps"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
)

// session returns a session of phases on the paper's baseline platform.
func session(phases ...Phase) Config {
	return Config{Seed: 1, Phases: phases, Knobs: DefaultKnobs()}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestOnePhaseSessionIsRun pins that a session is a run: for every app, a
// one-phase session reports the plain run's whole-run fields exactly, and
// its row carries the run's performance.
func TestOnePhaseSessionIsRun(t *testing.T) {
	for _, app := range apps.All() {
		cfg := DefaultConfig(app)
		cfg.Duration = 2 * event.Second
		run := Run(cfg)
		ses := Run(session(Phase{App: app, Duration: cfg.Duration}))
		if len(ses.Phases) != 1 {
			t.Fatalf("%s: %d rows for one phase", app.Name, len(ses.Phases))
		}
		row := ses.Phases[0]
		if row.App != app.Name || row.Duration != cfg.Duration || row.AvgFPS != run.AvgFPS ||
			row.Interactions != run.Interactions || row.MeanLatency != run.MeanLatency {
			t.Errorf("%s: row %+v does not carry the run's performance (%.3f fps, %d interactions, mean %v)",
				app.Name, row, run.AvgFPS, run.Interactions, run.MeanLatency)
		}
		if ses.App != "" || ses.Frames != 0 || ses.Interactions != 0 || ses.FPSFirstHalf != 0 {
			t.Errorf("%s: a session filled its per-app fields: %q, %d frames, %d interactions",
				app.Name, ses.App, ses.Frames, ses.Interactions)
		}
		run.App, run.Metric = "", 0
		run.Interactions, run.MeanLatency, run.TotalLatency, run.WorstLatency = 0, 0, 0, 0
		run.Frames, run.AvgFPS, run.MinFPS, run.FPSFirstHalf, run.FPSSecondHalf = 0, 0, 0, 0, 0
		ses.Phases = nil
		if a, b := mustJSON(t, run), mustJSON(t, ses); a != b {
			t.Errorf("%s: one-phase session differs from the run in a whole-run field:\nrun     %s\nsession %s", app.Name, a, b)
		}
	}
}

// TestPhasedStepping pins that the phase sequencing does not depend on the
// steps: odd steps that straddle the boundaries, and steps that end exactly
// on each boundary, give the Result and digest chain of one RunTo.
func TestPhasedStepping(t *testing.T) {
	ms := event.Millisecond
	phases := []Phase{
		{App: apps.Browser(), Duration: 1500 * ms},
		{App: apps.FIFA15(), Duration: 1000 * ms},
		{App: apps.VideoPlayer(), Duration: 1200 * ms},
	}
	run := func(steps func(end event.Time) []event.Time) (string, uint64) {
		cfg := session(phases...)
		th := thermal.Default()
		cfg.Thermal = &th
		cfg.Telemetry, cfg.Digest = telemetry.NewCollector(), &delta.Recorder{}
		sim := Assemble(cfg)
		for _, to := range steps(sim.cfg.Duration) {
			sim.RunTo(to)
		}
		return mustJSON(t, sim.Finish()), cfg.Digest.Chain().Fingerprint()
	}
	wantRes, wantDigest := run(func(end event.Time) []event.Time { return []event.Time{end} })
	odd := []event.Time{37 * ms, 113 * ms, 1 * ms, 251 * ms, 7 * ms}
	for name, steps := range map[string]func(event.Time) []event.Time{
		"odd steps": func(end event.Time) []event.Time {
			var at []event.Time
			for i, t := 0, event.Time(0); t < end; i++ {
				t += odd[i%len(odd)]
				at = append(at, t)
			}
			return at
		},
		"boundaries, each twice": func(end event.Time) []event.Time {
			var at []event.Time
			var t event.Time
			for _, ph := range phases {
				t += ph.Duration
				at = append(at, t-ph.Duration/2, t, t)
			}
			return at
		},
	} {
		res, digest := run(steps)
		if res != wantRes || digest != wantDigest {
			t.Errorf("%s: stepped session differs from one RunTo (digest %016x, want %016x)", name, digest, wantDigest)
		}
	}
}

// TestSnapshotRefusesPhases: BLSNAP records no phase position, so neither a
// snapshot-capable Sim nor a resume may carry a phase list.
func TestSnapshotRefusesPhases(t *testing.T) {
	phased := session(Phase{App: apps.AngryBird(), Duration: 2 * event.Second})
	if _, err := NewSim(phased); err == nil || !strings.Contains(err.Error(), "Phases") {
		t.Errorf("NewSim of a session: %v, want an error naming Phases", err)
	}
	cfg := shortCfg(apps.AngryBird())
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 2)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(phased, st); err == nil || !strings.Contains(err.Error(), "Phases") {
		t.Errorf("Resume into a session: %v, want an error naming Phases", err)
	}
}

// TestSimSizeClass holds Sim inside the 640-byte allocation size class: a
// session keeps its accounting behind a pointer so that every run, phased
// or not, allocates a Sim of the same class.
func TestSimSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Sim{}); n > 640 {
		t.Errorf("Sim is %d bytes, past the 640-byte size class", n)
	}
}
