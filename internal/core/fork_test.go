package core

import (
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/power"
	"biglittle/internal/profile"
	"biglittle/internal/sched"
	"biglittle/internal/snapshot"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
	"biglittle/internal/xray"
)

func shortCfg(app apps.App) Config {
	cfg := DefaultConfig(app)
	cfg.Duration = 2 * event.Second
	return cfg
}

// TestRecordingIsPassive pins the contract everything else builds on: a
// snapshot-enabled run (recorder attached, never snapshotted) produces a
// Result byte-identical to a plain run's.
func TestRecordingIsPassive(t *testing.T) {
	for _, app := range []apps.App{apps.Browser(), apps.AngryBird(), apps.VirusScanner()} {
		cfg := shortCfg(app)
		plain := Run(cfg)
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunTo(cfg.Duration)
		recorded := sim.Finish()
		if !reflect.DeepEqual(plain, recorded) {
			t.Fatalf("%s: recorded run diverged from plain run\nplain:    %+v\nrecorded: %+v", app.Name, plain, recorded)
		}
	}
}

// TestForkByteIdentity is the tentpole contract: fork at T, continue to the
// end, and the Result equals a from-scratch run exactly — across every app,
// including the codec round-trip RunForked performs.
func TestForkByteIdentity(t *testing.T) {
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := shortCfg(app)
			want := Run(cfg)
			got, err := RunForked(cfg, cfg.Duration/2)
			if err != nil {
				t.Fatalf("RunForked: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("forked run diverged from from-scratch run\nwant: %+v\ngot:  %+v", want, got)
			}
		})
	}
}

// TestForkDigestChains runs the differential harness over a fork: the delta
// digest chain of a forked run must match the from-scratch chain window for
// window — and DiffRuns must find no divergence.
func TestForkDigestChains(t *testing.T) {
	cfg := shortCfg(apps.Browser())
	var scratch, forked delta.Recorder
	cfgA := cfg
	cfgA.Digest = &scratch
	Run(cfgA)

	cfgB := cfg
	cfgB.Digest = &forked
	if _, err := RunForked(cfgB, cfg.Duration/2); err != nil {
		t.Fatalf("RunForked: %v", err)
	}

	a, b := scratch.Chain(), forked.Chain()
	w, err := delta.FirstDivergentWindow(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w != -1 {
		t.Fatalf("digest chains diverge at window %d (fork at %v)", w, cfg.Duration/2)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("chain fingerprints differ despite identical windows")
	}
}

// TestForkVariants exercises the sweep semantics: the continuation may vary
// policy knobs, which take effect at the fork point. The forked variant must
// equal a run that had SnapshotAt set but never forked... it cannot (the
// config differs before the fork), so instead pin that each variant resumes
// successfully and produces a self-consistent result.
func TestForkVariants(t *testing.T) {
	base := shortCfg(apps.FIFA15())
	sim, err := NewSim(base)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(base.Duration / 2)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	variants := map[string]func(Config) Config{
		"governor sample":  func(c Config) Config { c.Gov.SampleMs = 40; return c },
		"governor kind":    func(c Config) Config { c.Governor = Conservative; return c },
		"scheduler kind":   func(c Config) Config { c.Scheduler = EAS; return c },
		"thermal envelope": func(c Config) Config { p := thermal.Default(); c.Thermal = &p; return c },
		"longer horizon":   func(c Config) Config { c.Duration = 3 * event.Second; return c },
	}
	results := map[string]Result{}
	for name, mut := range variants {
		cfg := mut(base)
		forked, err := Resume(cfg, st)
		if err != nil {
			t.Fatalf("%s: Resume: %v", name, err)
		}
		forked.RunTo(cfg.Duration)
		results[name] = forked.Finish()
	}
	// The baseline continuation must differ from at least one variant — a
	// sweep that cannot move the output is recording the wrong knobs.
	cont, err := Resume(base, st)
	if err != nil {
		t.Fatal(err)
	}
	cont.RunTo(base.Duration)
	baseRes := cont.Finish()
	if reflect.DeepEqual(baseRes, results["governor kind"]) {
		t.Fatal("governor-kind variant produced a byte-identical result; the knob did not take effect at the fork")
	}
}

// TestSnapshotOfRestoredRun pins idempotence: resume a snapshot, run a bit,
// snapshot again, resume THAT, and the final result still matches the
// from-scratch run — forks of forks stay byte-identical.
func TestSnapshotOfRestoredRun(t *testing.T) {
	cfg := shortCfg(apps.Youtube())
	want := Run(cfg)

	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 4)
	st1, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	mid, err := Resume(cfg, st1)
	if err != nil {
		t.Fatal(err)
	}
	mid.RunTo(cfg.Duration / 2)
	st2, err := mid.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The first snapshot must be reusable after the second was taken (the
	// lab resumes one shared prefix many times).
	again, err := Resume(cfg, st1)
	if err != nil {
		t.Fatalf("re-resume of first snapshot: %v", err)
	}
	again.RunTo(cfg.Duration)
	if got := again.Finish(); !reflect.DeepEqual(want, got) {
		t.Fatal("second resume of the same snapshot diverged")
	}

	final, err := Resume(cfg, st2)
	if err != nil {
		t.Fatalf("resume of re-snapshot: %v", err)
	}
	final.RunTo(cfg.Duration)
	if got := final.Finish(); !reflect.DeepEqual(want, got) {
		t.Fatal("fork-of-fork diverged from the from-scratch run")
	}
}

// TestSnapshotAtConfig drives the capture through Run's SnapshotAt hook and
// checks the run itself is unperturbed.
func TestSnapshotAtConfig(t *testing.T) {
	cfg := shortCfg(apps.PDFReader())
	want := Run(cfg)

	var st *snapshot.State
	cfg2 := cfg
	cfg2.SnapshotAt = cfg.Duration / 2
	cfg2.OnSnapshot = func(s *snapshot.State) { st = s }
	got := Run(cfg2)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("SnapshotAt perturbed the run result")
	}
	if st == nil {
		t.Fatal("OnSnapshot never called")
	}
	if st.Time != cfg.Duration/2 {
		t.Fatalf("snapshot captured at %v, want %v", st.Time, cfg.Duration/2)
	}
	forked, err := Resume(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	forked.RunTo(cfg.Duration)
	if res := forked.Finish(); !reflect.DeepEqual(want, res) {
		t.Fatal("resume of SnapshotAt capture diverged")
	}
}

// TestResumeCompat pins the loud-rejection surface: wrong identity fields,
// incompatible observer hooks, and session checkpoints all refuse to resume.
func TestResumeCompat(t *testing.T) {
	cfg := shortCfg(apps.Browser())
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 2)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		mut  func(Config) Config
	}{
		{"wrong app", func(c Config) Config { c.App = apps.FIFA15(); return c }},
		{"wrong seed", func(c Config) Config { c.Seed = 99; return c }},
		{"wrong cores", func(c Config) Config { c.Cores.Big = 2; return c }},
		{"short horizon", func(c Config) Config { c.Duration = cfg.Duration / 4; return c }},
		{"telemetry", func(c Config) Config { c.Telemetry = telemetry.NewCollector(); return c }},
	}
	for _, tc := range bad {
		if _, err := Resume(tc.mut(cfg), st); err == nil {
			t.Errorf("%s: Resume accepted an incompatible config", tc.name)
		}
	}

	// A doctored log (a record of a kind replay does not know) must be
	// refused.
	st2 := *st
	st2.Workload.Log = append([]workload.Record{{Kind: workload.RecKind(255)}}, st.Workload.Log...)
	if _, err := Resume(cfg, &st2); err == nil || !strings.Contains(err.Error(), "unknown record kind") {
		t.Errorf("Resume of a log with an unknown record kind: err = %v, want an unknown-kind divergence", err)
	}

	// NewSim must reject configs whose observers cannot be captured.
	cfgBad := cfg
	cfgBad.Check = stubChecker{}
	if _, err := NewSim(cfgBad); err == nil {
		t.Error("NewSim accepted a Check auditor")
	}
	cfgHook := cfg
	cfgHook.OnSystem = func(sys *sched.System) {}
	if _, err := NewSim(cfgHook); err == nil {
		t.Error("NewSim accepted an OnSystem hook")
	}
}

// TestSnapshotErrorPaths pins the rest of the refusal surface: every
// unsupported observer, capture-time state, and doctored snapshot is a loud
// error, never a silently wrong fork.
func TestSnapshotErrorPaths(t *testing.T) {
	cfg := shortCfg(apps.AngryBird())

	// Every observer snapshotCompat names must be rejected, on both the
	// NewSim and RunForked entry points.
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"telemetry", func(c *Config) { c.Telemetry = telemetry.NewCollector() }},
		{"profiler", func(c *Config) { c.Profiler = profile.New() }},
		{"xray", func(c *Config) { c.Xray = xray.New() }},
	} {
		bad := cfg
		tc.mut(&bad)
		if _, err := NewSim(bad); err == nil {
			t.Errorf("%s: NewSim accepted an observer a resume cannot reconstruct", tc.name)
		}
		if _, err := RunForked(bad, cfg.Duration/2); err == nil {
			t.Errorf("%s: RunForked accepted an observer a resume cannot reconstruct", tc.name)
		}
	}

	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 2)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// RunTo past the horizon is capped, not an overrun.
	sim.RunTo(cfg.Duration * 2)
	if got := sim.Now(); got != cfg.Duration {
		t.Fatalf("RunTo past the horizon left the clock at %v, want %v", got, cfg.Duration)
	}

	// Snapshot after Finish must refuse.
	sim.Finish()
	if _, err := sim.Snapshot(); err == nil {
		t.Error("Snapshot after Finish succeeded")
	}

	// A custom-platform mismatch between snapshot and resume must refuse.
	plat := *st
	plat.CustomPlatform = true
	if _, err := Resume(cfg, &plat); err == nil {
		t.Error("Resume accepted a custom-platform mismatch")
	}

	// Doctored tracker state: a replay that disagrees with the captured
	// FPS/latency trackers must kill the fork.
	if len(st.Workload.Frames) == 0 {
		t.Fatal("test app rendered no frames before the fork point; pick a frame-driven app")
	}
	short := *st
	short.Workload.Frames = append([]event.Time(nil), st.Workload.Frames[:len(st.Workload.Frames)-1]...)
	if _, err := Resume(cfg, &short); err == nil {
		t.Error("Resume accepted a snapshot missing a captured frame")
	}
	skew := *st
	skew.Workload.Frames = append([]event.Time(nil), st.Workload.Frames...)
	skew.Workload.Frames[0]++
	if _, err := Resume(cfg, &skew); err == nil {
		t.Error("Resume accepted a snapshot with a shifted frame time")
	}
	lat := *st
	lat.Workload.LatN++
	if _, err := Resume(cfg, &lat); err == nil {
		t.Error("Resume accepted a snapshot with a doctored latency tracker")
	}

	// Full-rate digest steps are not carried across a fork; capturing with
	// any recorded must refuse rather than drop them.
	cfgD := cfg
	cfgD.Digest = &delta.Recorder{FullFrom: 0, FullTo: cfg.Duration}
	simD, err := NewSim(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	simD.RunTo(cfg.Duration / 2)
	if _, err := simD.Snapshot(); err == nil {
		t.Error("Snapshot accepted full-rate digest steps")
	}
}

// stubChecker satisfies Checker without doing anything; NewSim must reject
// it before it ever runs.
type stubChecker struct{}

func (stubChecker) Attach(sys *sched.System, pw power.Params)  {}
func (stubChecker) Finish(elapsed event.Time, meterMJ float64) {}
