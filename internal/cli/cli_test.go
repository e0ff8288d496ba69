package cli

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
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

// downFleet is a lab.Executor whose every attempt fails, as a coordinator
// that is down or of another build does.
type downFleet struct{}

func (downFleet) Execute(lab.Job) (core.Result, bool, error) {
	return core.Result{}, false, errors.New("fleet down")
}

// TestPrintLabStatsOptionalLines pins that the fleet-fallback and audit
// lines print from the runner's counters, and that a clean run prints
// neither (the smoke targets grep the summary line around them).
func TestPrintLabStatsOptionalLines(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(app)
	cfg.Duration = 200 * event.Millisecond
	stats := func(r *lab.Runner) string {
		t.Helper()
		if _, err := r.Run(lab.Job{Config: cfg}); err != nil {
			t.Fatal(err)
		}
		// blexplore audits its final rung and then turns Check off again.
		r.Check = false
		var b strings.Builder
		PrintLabStats(&b, r, 0)
		return b.String()
	}
	const fleet, audit = "lab: fleet: ", "lab: audit: "

	clean := stats(lab.New(1, nil))
	if strings.Contains(clean, fleet) || strings.Contains(clean, audit) {
		t.Errorf("clean run printed an optional line:\n%s", clean)
	}
	fellBack := stats(&lab.Runner{Workers: 1, Remote: downFleet{}})
	if !strings.Contains(fellBack, fleet+"1 jobs fell back to local simulation after a fleet error\n") ||
		!strings.Contains(fellBack, " 0 remote,") {
		t.Errorf("fleet fallback not reported:\n%s", fellBack)
	}
	audited := stats(&lab.Runner{Workers: 1, Check: true})
	if !strings.Contains(audited, audit+"1 runs verified, 0 failed\n") {
		t.Errorf("audit not reported once Check was off:\n%s", audited)
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

// TestOverrideVocabulary: ApplyOverrides is split + ResolveOverride + apply,
// so for every key in the table a value resolved once and applied — to any
// number of configs — writes what ApplyOverrides writes. Error text is part
// of the commands' interface and is pinned byte for byte.
func TestOverrideVocabulary(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]string{
		"up": {"350", "0"}, "down": {"128"}, "halflife-ms": {"16"}, "tick-ms": {"2"},
		"tiny-wake-load": {"300"}, "sample-ms": {"60", "-5"}, "target-load": {"85"},
		"gov-down": {"40"}, "governor": {"ondemand", "userspace", "past"},
		"scheduler": {"eas", "parallelism"}, "cores": {"L2+B4", "L4", "L4+B4+T2"}, "seed": {"7"},
	}
	bases := []core.Config{core.DefaultConfig(app), {App: app}}
	bases[0].Governor, bases[0].Cores.Big = core.Powersave, 2
	for _, o := range overrides {
		vs := values[o.key]
		if len(vs) == 0 {
			t.Fatalf("override %q has no sample value in this test", o.key)
		}
		for _, v := range vs {
			set, err := ResolveOverride(o.key, v)
			if err != nil {
				t.Fatalf("ResolveOverride(%q, %q): %v", o.key, v, err)
			}
			for bi, base := range bases {
				got, want := base, base
				set(&got)
				if err := ApplyOverrides(&want, o.key+"="+v); err != nil {
					t.Fatalf("ApplyOverrides(%s=%s): %v", o.key, v, err)
				}
				if !reflect.DeepEqual(got.Knobs, want.Knobs) || got.Seed != want.Seed || got.Duration != want.Duration {
					t.Fatalf("%s=%s on base %d: resolved setter wrote %+v, ApplyOverrides %+v", o.key, v, bi, got.Knobs, want.Knobs)
				}
			}
		}
	}

	keys := "up, down, halflife-ms, tick-ms, tiny-wake-load, sample-ms, target-load, gov-down, governor, scheduler, cores, seed"
	for _, c := range []struct{ spec, err string }{
		{"up=abc", `override up: bad value "abc": strconv.Atoi: parsing "abc": invalid syntax`},
		{"down=", `override down: bad value "": strconv.Atoi: parsing "": invalid syntax`},
		{"seed=1.5", `override seed: bad value "1.5": strconv.Atoi: parsing "1.5": invalid syntax`},
		{"governor=warp", `unknown governor "warp" (want interactive, performance, powersave, userspace, ondemand, conservative, or past)`},
		{"scheduler=warp", `unknown scheduler "warp" (want hmp, efficiency, parallelism, or eas)`},
		{"cores=XYZ", `platform: bad core config part "XYZ": strconv.Atoi: parsing "YZ": invalid syntax`},
		{"cores=L0", `platform: core config L0 out of range (1-4 little, 0-4 big, 0-2 tiny)`},
		{"bogus=1", `unknown override key "bogus" (keys: ` + keys + `)`},
		{"=1", `unknown override key "" (keys: ` + keys + `)`},
		{"up", `bad override "up" (want key=value; keys: ` + keys + `)`},
		{"up=1,bogus", `bad override "bogus" (want key=value; keys: ` + keys + `)`},
	} {
		cfg := core.DefaultConfig(app)
		err := ApplyOverrides(&cfg, c.spec)
		if err == nil || err.Error() != c.err {
			t.Errorf("ApplyOverrides(%q) error:\n got  %v\n want %s", c.spec, err, c.err)
		}
		if k, v, ok := strings.Cut(c.spec, "="); ok && !strings.Contains(v, ",") {
			if set, err := ResolveOverride(k, v); set != nil || err == nil || err.Error() != c.err {
				t.Errorf("ResolveOverride(%q, %q) = setter %v, error %v; want no setter and %s", k, v, set != nil, err, c.err)
			}
		}
	}
}
