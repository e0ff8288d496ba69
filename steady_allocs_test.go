package biglittle_test

import (
	"fmt"
	"io"
	"testing"

	"biglittle"
	"biglittle/internal/core"
)

// steadyStateBudget is how many more objects a run may allocate when its
// simulated time doubles. Assembly allocates the same at any duration; what
// grows with duration is append-grown storage (the snapshot log, the frame
// and latency trackers, telemetry histograms) and, with xray attached, the
// first sight of each distinct choice string: a handful of objects per
// doubling.
const steadyStateBudget = 32

// ringBound is the telemetry and xray ring size of the observed cases: small
// enough that both rings wrap within the short run, so the doubled run
// records over full rings.
const ringBound = 256

// observer attaches one observer, or a set of them, to a run.
type observer struct {
	name   string
	attach func(*core.Observers)
}

// observers are the five observers, each attached alone.
var observers = []observer{
	{"telemetry", func(o *core.Observers) {
		o.Telemetry = biglittle.NewTelemetry()
		o.Telemetry.MaxEvents = ringBound
	}},
	{"profiler", func(o *core.Observers) { o.Profiler = biglittle.NewProfiler() }},
	{"xray", func(o *core.Observers) {
		o.Xray = biglittle.NewXray()
		o.Xray.MaxSpans = ringBound
	}},
	{"check", func(o *core.Observers) { o.Check = biglittle.NewAuditor() }},
	{"digest", func(o *core.Observers) { o.Digest = biglittle.NewDigestRecorder() }},
}

// attachAll attaches all five observers.
func attachAll(o *core.Observers) {
	for _, ob := range observers {
		ob.attach(o)
	}
}

// TestSteadyStateAllocs holds a run to allocating only while it is being
// assembled: after Build, advancing simulated time must not allocate per
// scheduler tick, frame, interaction or recorded workload event. Each case
// runs at a short and a doubled duration and fails if the doubled run
// allocates more than steadyStateBudget objects beyond the short one. It
// covers every app under each scheduler; fifa15, bbench and encoder under
// every governor but userspace, and recorded (snapshot-capable); a thermal
// stress run whose critical hotplug engages; browser and fifa15 with each
// observer attached alone and with all five, their rings full; and a
// three-phase live session with all five observers.
func TestSteadyStateAllocs(t *testing.T) {
	type allocCase struct {
		name        string
		short, long biglittle.Time
		run         func(t testing.TB, d biglittle.Time)
	}
	var cases []allocCase
	plain := func(cfg biglittle.Config) func(testing.TB, biglittle.Time) {
		return func(_ testing.TB, d biglittle.Time) {
			cfg.Duration = d
			biglittle.Run(cfg)
		}
	}
	for _, app := range biglittle.Apps() {
		for _, sk := range policyGoldenScheds {
			cfg := biglittle.DefaultConfig(app)
			cfg.Scheduler = sk
			cases = append(cases, allocCase{fmt.Sprintf("%s/%s", app.Name, sk), 4 * biglittle.Second, 8 * biglittle.Second, plain(cfg)})
		}
	}
	govs := []core.GovernorKind{core.Interactive, core.Performance, core.Powersave, core.Ondemand, core.Conservative, core.PAST}
	for _, name := range []string{"fifa15", "bbench", "encoder"} {
		app, err := biglittle.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range govs {
			cfg := biglittle.DefaultConfig(app)
			cfg.Governor = g
			cases = append(cases, allocCase{fmt.Sprintf("%s/%s", name, g), 4 * biglittle.Second, 8 * biglittle.Second, plain(cfg)})
		}
		cfg := biglittle.DefaultConfig(app)
		cases = append(cases, allocCase{name + "/recorded", 4 * biglittle.Second, 8 * biglittle.Second, func(t testing.TB, d biglittle.Time) {
			cfg.Duration = d
			sim, err := biglittle.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.RunTo(d)
			sim.Finish()
		}})
	}
	for _, sk := range policyGoldenScheds {
		cases = append(cases, allocCase{fmt.Sprintf("stress_4/%s/thermal", sk), 30 * biglittle.Second, 60 * biglittle.Second, func(t testing.TB, d biglittle.Time) {
			thermalStressRun(t, sk, d)
		}})
	}
	for _, name := range []string{"browser", "fifa15"} {
		app, err := biglittle.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ob := range append(observers[:len(observers):len(observers)], observer{"all", attachAll}) {
			cases = append(cases, allocCase{name + "/observed/" + ob.name, 4 * biglittle.Second, 8 * biglittle.Second, func(_ testing.TB, d biglittle.Time) {
				cfg := biglittle.DefaultConfig(app)
				cfg.Duration = d
				ob.attach(&cfg.Observers)
				biglittle.Run(cfg)
			}})
		}
	}
	cases = append(cases, allocCase{"session/observed/all", 4 * biglittle.Second, 8 * biglittle.Second, func(t testing.TB, phase biglittle.Time) {
		cfg := biglittle.NewSession(sessionPhases(t, phase)...)
		attachAll(&cfg.Observers)
		live := biglittle.NewLiveSession(cfg)
		for !live.Done() {
			live.Advance(live.Now() + 100*biglittle.Millisecond)
		}
	}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			short := testing.AllocsPerRun(1, func() { c.run(t, c.short) })
			long := testing.AllocsPerRun(1, func() { c.run(t, c.long) })
			if extra := long - short; extra > steadyStateBudget {
				t.Errorf("%v allocates %.0f objects, %v allocates %.0f: %+.0f for the doubled run, budget %d",
					c.short, short, c.long, long, extra, steadyStateBudget)
			}
		})
	}
}

// sessionPhases is browser, eternity_warrior and video_player, each for d.
func sessionPhases(t testing.TB, d biglittle.Time) []biglittle.SessionPhase {
	var phases []biglittle.SessionPhase
	for _, name := range []string{"browser", "eternity_warrior", "video_player"} {
		app, err := biglittle.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, biglittle.SessionPhase{App: app, Duration: d})
	}
	return phases
}

// TestScrapeAllocsFixed holds what blserve does per scrape to a fixed number
// of objects: a profiler snapshot, its Prometheus text and the telemetry
// registry's allocate as many objects at the end of a three-phase live
// session as midway through its second phase, though the third phase
// creates more tasks. (The first phase, browser, steps no frequency, so
// until the second the telemetry text lacks a section.)
func TestScrapeAllocsFixed(t *testing.T) {
	cfg := biglittle.NewSession(sessionPhases(t, 2*biglittle.Second)...)
	attachAll(&cfg.Observers)
	live := biglittle.NewLiveSession(cfg)
	scrapes := map[string]func(){
		"profile.Snapshot": func() { cfg.Profiler.Snapshot(live.Now()) },
		"Snapshot.WritePrometheus": func() {
			cfg.Profiler.Snapshot(live.Now()).WritePrometheus(io.Discard)
		},
		"telemetry WritePrometheus": func() { cfg.Telemetry.WritePrometheus(io.Discard) },
	}
	live.Advance(3 * biglittle.Second)
	early, tasks := map[string]float64{}, len(live.Sys.Tasks())
	for name, scrape := range scrapes {
		early[name] = testing.AllocsPerRun(5, scrape)
	}
	live.Advance(live.Duration())
	if len(live.Sys.Tasks()) <= tasks {
		t.Fatalf("the session did not create tasks after its first phase: %d, then %d", tasks, len(live.Sys.Tasks()))
	}
	for name, scrape := range scrapes {
		if late := testing.AllocsPerRun(5, scrape); late != early[name] {
			t.Errorf("%s allocates %.0f objects over %d tasks, %.0f over %d", name, early[name], tasks, late, len(live.Sys.Tasks()))
		}
	}
}
