package cli

import (
	"flag"
	"strings"
	"testing"
	"time"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
)

func TestParsePhases(t *testing.T) {
	phases, err := ParsePhases("browser:1s, video_player:2s")
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0].App.Name != "browser" || phases[0].Duration != event.Second ||
		phases[1].App.Name != "video_player" || phases[1].Duration != 2*event.Second {
		t.Fatalf("phases = %+v", phases)
	}
	for _, bad := range []string{"browser:0s", "browser:-1s", "browser", "nope:1s", ""} {
		if _, err := ParsePhases(bad); err == nil {
			t.Errorf("ParsePhases(%q) accepted a bad phase list", bad)
		}
	}
}

func TestResolveApps(t *testing.T) {
	all, err := ResolveApps("")
	if err != nil || len(all) != 12 {
		t.Fatalf("ResolveApps(\"\") = %d apps, %v; want the twelve-app suite", len(all), err)
	}
	one, err := ResolveApps("bbench")
	if err != nil || len(one) != 1 || one[0].Name != "bbench" {
		t.Fatalf("ResolveApps(bbench) = %v, %v", one, err)
	}
	if _, err := ResolveApps("nonexistent"); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestRegisterExperimentAndRunner(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := RegisterExperiment(fs, 15*time.Second)
	if err := fs.Parse([]string{"-seed", "7", "-workers", "3", "-cache-dir", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if e.Seed != 7 || e.Duration != 15*time.Second || e.Workers != 3 {
		t.Fatalf("parsed experiment = %+v", e)
	}
	r, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache == nil {
		t.Fatal("cache should be on by default")
	}
	o := e.Options(r)
	if o.Seed != 7 || o.Runner != r {
		t.Fatalf("options = %+v", o)
	}

	e.NoCache = true
	r2, err := e.Runner()
	if err != nil || r2.Cache != nil {
		t.Fatalf("-no-cache runner = %+v, %v; want nil cache", r2, err)
	}
}

func TestRunnerRemoteWiring(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := RegisterExperiment(fs, 15*time.Second)
	if err := fs.Parse([]string{"-remote", "http://127.0.0.1:8377", "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	r, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if r.Remote == nil {
		t.Fatal("-remote did not install a fleet executor")
	}
	// Remote pool slots wait on the coordinator, not a CPU: the default
	// widens so a sweep keeps the fleet busy.
	if r.Workers != 16 {
		t.Fatalf("remote default workers = %d, want 16", r.Workers)
	}

	// An explicit -workers wins.
	e.Workers = 2
	r2, err := e.Runner()
	if err != nil || r2.Workers != 2 {
		t.Fatalf("explicit workers = %d, %v; want 2", r2.Workers, err)
	}

	// Without -remote, no executor is attached.
	e.Remote = ""
	r3, err := e.Runner()
	if err != nil || r3.Remote != nil {
		t.Fatalf("runner without -remote has an executor: %+v, %v", r3.Remote, err)
	}
}

func TestApplyOverrides(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(app)
	if err := ApplyOverrides(&cfg, "up=350, down=128, governor=ondemand, sample-ms=60, cores=L2+B4, seed=7"); err != nil {
		t.Fatal(err)
	}
	if cfg.Sched.UpThreshold != 350 || cfg.Sched.DownThreshold != 128 {
		t.Fatalf("thresholds = %d/%d", cfg.Sched.UpThreshold, cfg.Sched.DownThreshold)
	}
	if cfg.Governor != core.Ondemand || cfg.Gov.SampleMs != 60 {
		t.Fatalf("governor = %v sample=%d", cfg.Governor, cfg.Gov.SampleMs)
	}
	if cfg.Cores.Little != 2 || cfg.Cores.Big != 4 {
		t.Fatalf("cores = %+v", cfg.Cores)
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed = %d", cfg.Seed)
	}
	// Empty spec is a no-op.
	before := cfg.Sched
	if err := ApplyOverrides(&cfg, ""); err != nil || cfg.Sched != before {
		t.Fatalf("empty spec changed the config or errored: %v", err)
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	app, _ := apps.ByName("bbench")
	for _, bad := range []string{"up", "bogus=1", "up=abc", "governor=warp", "scheduler=warp", "cores=XYZ"} {
		cfg := core.DefaultConfig(app)
		if err := ApplyOverrides(&cfg, bad); err == nil {
			t.Errorf("override %q did not error", bad)
		}
	}
	cfg := core.DefaultConfig(app)
	if err := ApplyOverrides(&cfg, "bogus=1"); err == nil || !strings.Contains(err.Error(), "governor") {
		t.Errorf("unknown-key error should list the vocabulary: %v", err)
	}
}
