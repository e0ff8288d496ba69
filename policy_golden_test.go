package biglittle_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"biglittle"
	"biglittle/internal/core"
)

// The golden corpus (golden_test.go) runs every app under HMP only. This
// test pins the other scheduling policies byte for byte: every app under
// the efficiency-based, parallelism-aware and EAS policies on a full and a
// reduced hotplug configuration, the thermal stress run whose critical
// hotplug sheds big cores under each of the four policies, and the two
// spec-loaded apps of internal/spec's tests under all four. Ties in the
// policies' rankings and the thermal hotplug order are exercised here and
// nowhere else in tier 1. A governor section pins the six other governors
// and interactive with its hold tunables on, with what telemetry and the
// x-ray tracer saw of their decisions, and forks between governors through
// the snapshot codec. `-golden-update` rewrites the file.

// policyGoldenScheds lists the four scheduling policies, HMP first.
var policyGoldenScheds = []core.SchedulerKind{core.HMP, core.EfficiencyBased, core.ParallelismAware, core.EAS}

// chatAppSpec and miniGameSpec are internal/spec's test workloads.
const chatAppSpec = `{
  "name": "chat_app",
  "metric": "latency",
  "threads": [
    {"name": "ui", "speedup": 1.5},
    {"name": "crypto", "speedup": 2.0},
    {"name": "net", "speedup": 1.3}
  ],
  "interactions": [{
    "think_ms": 600, "think_cv": 0.5,
    "boost": ["ui"], "boost_load": 800,
    "stages": [
      {"threads": ["ui"], "work_mc": 1.2, "cv": 0.4},
      {"threads": ["crypto"], "work_mc": 8, "cv": 0.5, "post_delay_ms": 15},
      {"threads": ["net"], "work_mc": 1, "post_delay_ms": 30}
    ]
  }],
  "poisson": [{"thread": "net", "mean_ms": 300, "work_mc": 0.8, "cv": 0.5}],
  "hum": {"mean_ms": 10, "p2": 0.5, "p3": 0.1}
}`

const miniGameSpec = `{
  "name": "mini_game",
  "metric": "fps",
  "threads": [
    {"name": "logic", "speedup": 1.6},
    {"name": "render", "speedup": 1.8}
  ],
  "frames": {
    "period_ms": 16.7,
    "logic": {"thread": "logic", "work_mc": 2, "cv": 0.3},
    "parallel": [{"thread": "render", "work_mc": 3.5, "cv": 0.3}]
  },
  "touch_kicks_ms": 400
}`

// thermalStressRun runs apps.Stress(4) under the default thermal envelope on
// a snapshot-capable Sim, so Sim.Thermal's hotplug count is readable.
func thermalStressRun(t testing.TB, sk core.SchedulerKind, d biglittle.Time) (biglittle.Config, biglittle.Result, int) {
	t.Helper()
	cfg := biglittle.DefaultConfig(biglittle.Stress(4))
	cfg.Duration = d
	cfg.Scheduler = sk
	th := biglittle.DefaultThermal()
	cfg.Thermal = &th
	sim, err := biglittle.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration)
	r := sim.Finish()
	return cfg, r, sim.Thermal().HotplugEvents
}

func TestPolicyGolden(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "policy golden: seed 1, %v per app run\n", goldenDur)
	cores := []biglittle.CoreConfig{{Little: 4, Big: 4}, {Little: 2, Big: 1}}
	run := func(app biglittle.App, sk core.SchedulerKind) {
		fmt.Fprintf(&b, "== %s %s\n", app.Name, sk)
		for _, cc := range cores {
			cfg := biglittle.DefaultConfig(app)
			cfg.Duration = goldenDur
			cfg.Cores = cc
			cfg.Scheduler = sk
			b.WriteString(goldenRender(cc, biglittle.Run(cfg)))
		}
	}
	for _, sk := range policyGoldenScheds[1:] {
		for _, app := range biglittle.Apps() {
			run(app, sk)
		}
	}
	for _, spec := range []string{chatAppSpec, miniGameSpec} {
		app, err := biglittle.LoadSpec([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, sk := range policyGoldenScheds {
			run(app, sk)
		}
	}
	for _, sk := range policyGoldenScheds {
		cfg, r, hotplug := thermalStressRun(t, sk, 20*biglittle.Second)
		if hotplug == 0 {
			t.Errorf("stress_4 under %s never hotplugged a big core; the critical path is not exercised", sk)
		}
		fmt.Fprintf(&b, "== %s %s thermal %v\n", cfg.App.Name, sk, cfg.Duration)
		b.WriteString(goldenRender(cfg.Cores, r))
		fmt.Fprintf(&b, "  maxtemp=%.3f throttled=%.3f%% hotplug=%d\n", r.MaxTempC, r.ThrottledPct, hotplug)
	}
	writeGovernorGolden(t, &b)
	got := b.String()

	path := filepath.Join("testdata", "policies.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no policy golden (regenerate with -golden-update): %v", err)
	}
	if explain := biglittle.ExplainTextDiff(string(want), got); explain != "" {
		t.Fatalf("policy golden mismatch: %s", explain)
	}
}

// governorGoldenRuns are the governor setups the governor section pins: the
// three load-tracking alternatives at a non-default sampling period, the
// static governors, and interactive with both hold tunables on.
var governorGoldenRuns = []struct {
	name string
	set  func(*biglittle.Config)
}{
	{"ondemand", func(c *biglittle.Config) { c.Governor, c.Gov.SampleMs = core.Ondemand, 40 }},
	{"conservative", func(c *biglittle.Config) { c.Governor, c.Gov.SampleMs = core.Conservative, 40 }},
	{"past", func(c *biglittle.Config) { c.Governor, c.Gov.SampleMs = core.PAST, 40 }},
	{"performance", func(c *biglittle.Config) { c.Governor = core.Performance }},
	{"powersave", func(c *biglittle.Config) { c.Governor = core.Powersave }},
	{"userspace", func(c *biglittle.Config) { c.Governor, c.PinnedMHz = core.Userspace, map[int]int{0: 1000, 1: 1200} }},
	{"interactive-hold", func(c *biglittle.Config) { c.Gov.AboveHispeedDelayMs, c.Gov.MinSampleTimeMs = 40, 60 }},
}

// governorGoldenConfig is app on L4+B4 for goldenDur under the named
// governorGoldenRuns setup.
func governorGoldenConfig(t *testing.T, app biglittle.App, name string) biglittle.Config {
	t.Helper()
	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = goldenDur
	cfg.Cores = biglittle.CoreConfig{Little: 4, Big: 4}
	for _, g := range governorGoldenRuns {
		if g.name == name {
			g.set(&cfg)
			return cfg
		}
	}
	t.Fatalf("no governor golden setup %q", name)
	return cfg
}

func fnv64(data string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, data)
	return h.Sum64()
}

// writeGovernorGolden runs every app under every governorGoldenRuns setup
// with telemetry and an unbounded x-ray tracer attached, and writes each
// run's golden render, its governor decisions counted by telemetry reason,
// and the count and FNV-64a of its x-ray spans. Four forks at 50% then cross
// governors through EncodeSnapshot/DecodeSnapshot; each writes its blob's
// length and FNV-64a and the resumed run's render.
func writeGovernorGolden(t *testing.T, b *strings.Builder) {
	for _, app := range biglittle.Apps() {
		for _, g := range governorGoldenRuns {
			cfg := governorGoldenConfig(t, app, g.name)
			tel, xr := biglittle.NewTelemetry(), biglittle.NewXray()
			tel.MaxEvents, xr.MaxSpans = -1, -1
			cfg.Telemetry, cfg.Xray = tel, xr
			r := biglittle.Run(cfg)
			fmt.Fprintf(b, "== %s %s\n", app.Name, g.name)
			b.WriteString(goldenRender(cfg.Cores, r))
			reasons := map[string]int{}
			for _, ev := range tel.Events() {
				if ev.Kind == biglittle.EvGovernor {
					reasons[ev.Reason]++
				}
			}
			names := make([]string, 0, len(reasons))
			for name := range reasons {
				names = append(names, name)
			}
			sort.Strings(names)
			b.WriteString("  governor:")
			if len(names) == 0 {
				b.WriteString(" none")
			}
			for _, name := range names {
				fmt.Fprintf(b, " %s=%d", name, reasons[name])
			}
			var spans strings.Builder
			all := xr.Spans()
			for _, s := range all {
				spans.WriteString(s.Format())
			}
			fmt.Fprintf(b, "\n  spans=%d fnv=%016x\n", len(all), fnv64(spans.String()))
		}
	}
	app, err := biglittle.AppByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][2]string{
		{"interactive-hold", "ondemand"},
		{"ondemand", "ondemand"},
		{"interactive-hold", "interactive-hold"},
		{"past", "conservative"},
	} {
		cfg := governorGoldenConfig(t, app, f[0])
		sim, err := biglittle.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunTo(cfg.Duration / 2)
		st, err := sim.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := biglittle.EncodeSnapshot(st)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = biglittle.DecodeSnapshot(blob); err != nil {
			t.Fatal(err)
		}
		resumed, err := biglittle.Resume(governorGoldenConfig(t, app, f[1]), st)
		if err != nil {
			t.Fatalf("fork %s -> %s: %v", f[0], f[1], err)
		}
		resumed.RunTo(cfg.Duration)
		fmt.Fprintf(b, "== fork %s %s -> %s at %v\n", app.Name, f[0], f[1], cfg.Duration/2)
		fmt.Fprintf(b, "  blob=%d fnv=%016x\n", len(blob), fnv64(string(blob)))
		b.WriteString(goldenRender(cfg.Cores, resumed.Finish()))
	}
}
