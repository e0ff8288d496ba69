package biglittle_test

import (
	"fmt"
	"os"
	"path/filepath"
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
// nowhere else in tier 1. `-golden-update` rewrites the file.

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
