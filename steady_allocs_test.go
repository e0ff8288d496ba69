package biglittle_test

import (
	"fmt"
	"testing"

	"biglittle"
	"biglittle/internal/core"
)

// steadyStateBudget is how many more objects a run may allocate when its
// simulated time doubles. Assembly allocates the same at any duration; what
// grows with duration is append-grown storage (the snapshot log, the frame
// and latency trackers), a handful of objects per doubling.
const steadyStateBudget = 32

// TestSteadyStateAllocs holds a run to allocating only while it is being
// assembled: after Build, advancing simulated time must not allocate per
// scheduler tick, frame, interaction or recorded workload event. Each case
// runs at a short and a doubled duration and fails if the doubled run
// allocates more than steadyStateBudget objects beyond the short one. It
// covers every app under each scheduler; fifa15, bbench and encoder under
// every governor but userspace, and recorded (snapshot-capable); and a
// thermal stress run whose critical hotplug engages.
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
