package spec

import (
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/session"
)

const chatApp = `{
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

const gameApp = `{
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

func TestParseAndRunLatencyApp(t *testing.T) {
	app, err := Parse([]byte(chatApp))
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "chat_app" || app.Metric != apps.Latency {
		t.Fatalf("parsed %s %v", app.Name, app.Metric)
	}
	cfg := core.DefaultConfig(app)
	cfg.Duration = 6 * event.Second
	r := core.Run(cfg)
	if r.Interactions == 0 || r.MeanLatency <= 0 {
		t.Fatalf("spec app produced no interactions: %+v", r.Interactions)
	}
	// The fixed delays (45 ms) bound the latency from below.
	if r.MeanLatency < 45*event.Millisecond {
		t.Fatalf("latency %v below the spec's fixed delays", r.MeanLatency)
	}
	// Threads must exist with the spec's names.
	found := false
	for _, ts := range r.TaskStats {
		if ts.Name == "chat_app.crypto" {
			found = true
		}
	}
	if !found {
		t.Fatal("crypto thread missing from task stats")
	}
}

// A spec app's hum starts one gap after the app is built, so the app can
// run as any phase of a session, not only the first.
func TestHumInLaterSessionPhase(t *testing.T) {
	app, err := Parse([]byte(chatApp))
	if err != nil {
		t.Fatal(err)
	}
	browser, err := apps.ByName("browser")
	if err != nil {
		t.Fatal(err)
	}
	r := session.Run(session.DefaultConfig(
		session.Phase{App: browser, Duration: 2 * event.Second},
		session.Phase{App: app, Duration: 2 * event.Second}))
	if len(r.Phases) != 2 || r.Phases[1].App != "chat_app" || r.Phases[1].Interactions == 0 {
		t.Fatalf("session did not run chat_app as its second phase: %+v", r.Phases)
	}
}

func TestParseAndRunFPSApp(t *testing.T) {
	app, err := Parse([]byte(gameApp))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(app)
	cfg.Duration = 6 * event.Second
	r := core.Run(cfg)
	if r.AvgFPS < 50 || r.AvgFPS > 61 {
		t.Fatalf("mini game %f FPS, want ~60", r.AvgFPS)
	}
}

func TestParseDeterministic(t *testing.T) {
	app, _ := Parse([]byte(chatApp))
	run := func() core.Result {
		cfg := core.DefaultConfig(app)
		cfg.Duration = 3 * event.Second
		return core.Run(cfg)
	}
	a, b := run(), run()
	if a.Interactions != b.Interactions || a.AvgPowerMW != b.AvgPowerMW {
		t.Fatal("spec app nondeterministic")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad json", `{`, "spec:"},
		{"missing name", `{"threads":[{"name":"a"}]}`, "missing name"},
		{"bad metric", `{"name":"x","metric":"speed","threads":[{"name":"a"}]}`, "metric"},
		{"no threads", `{"name":"x"}`, "at least one thread"},
		{"dup thread", `{"name":"x","threads":[{"name":"a"},{"name":"a"}]}`, "duplicate"},
		{"empty thread name", `{"name":"x","threads":[{"name":""}]}`, "empty name"},
		{"unknown stage thread", `{"name":"x","threads":[{"name":"a"}],
			"interactions":[{"think_ms":100,"stages":[{"threads":["b"],"work_mc":1}]}]}`, "undeclared"},
		{"unknown boost", `{"name":"x","threads":[{"name":"a"}],
			"interactions":[{"think_ms":100,"boost":["zz"],"stages":[{"threads":["a"],"work_mc":1}]}]}`, "undeclared"},
		{"no stages", `{"name":"x","threads":[{"name":"a"}],
			"interactions":[{"think_ms":100}]}`, "no stages"},
		{"zero think", `{"name":"x","threads":[{"name":"a"}],
			"interactions":[{"stages":[{"threads":["a"],"work_mc":1}]}]}`, "think_ms"},
		{"bad periodic", `{"name":"x","threads":[{"name":"a"}],
			"periodics":[{"thread":"a","period_ms":0,"work_mc":1}]}`, "period_ms"},
		{"bad poisson thread", `{"name":"x","threads":[{"name":"a"}],
			"poisson":[{"thread":"q","mean_ms":5,"work_mc":1}]}`, "undeclared"},
		{"bad frame thread", `{"name":"x","threads":[{"name":"a"}],
			"frames":{"period_ms":16,"logic":{"thread":"nope","work_mc":1}}}`, "undeclared"},
		{"frame no period", `{"name":"x","threads":[{"name":"a"}],
			"frames":{"logic":{"thread":"a","work_mc":1}}}`, "period_ms"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDefaultMetricIsLatency(t *testing.T) {
	app, err := Parse([]byte(`{"name":"x","threads":[{"name":"a"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if app.Metric != apps.Latency {
		t.Fatal("default metric")
	}
}

func FuzzParse(f *testing.F) {
	f.Add([]byte(chatApp))
	f.Add([]byte(gameApp))
	f.Add([]byte(`{"name":"x","threads":[{"name":"a"}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := Parse(data)
		if err != nil {
			return
		}
		// Any document Parse accepts must build and run without panicking.
		cfg := core.DefaultConfig(app)
		cfg.Duration = 200 * event.Millisecond
		core.Run(cfg)
	})
}
