package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/thermal"
)

// forkCase is one property-test instance: a full run configuration and a
// fork time. It prints compactly so a failure names the exact (config, T).
type forkCase struct {
	App       string
	Cores     platform.CoreConfig
	Scheduler SchedulerKind
	Governor  GovernorKind
	Thermal   bool
	Seed      int64
	ForkAt    event.Time
}

func (c forkCase) String() string {
	return fmt.Sprintf("app=%s cores=%v sched=%v gov=%v thermal=%v seed=%d forkAt=%v",
		c.App, c.Cores, c.Scheduler, c.Governor, c.Thermal, c.Seed, c.ForkAt)
}

const propDuration = 1500 * event.Millisecond

func (c forkCase) config(t *testing.T) Config {
	app, err := apps.ByName(c.App)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(app)
	cfg.Duration = propDuration
	cfg.Cores = c.Cores
	cfg.Scheduler = c.Scheduler
	cfg.Governor = c.Governor
	cfg.Seed = c.Seed
	if c.Thermal {
		p := thermal.Default()
		cfg.Thermal = &p
	}
	return cfg
}

// check runs the differential harness on one case: the forked run's Result
// and digest chain must equal the from-scratch run's. It returns a
// description of the first observed divergence, or "" when the fork is
// byte-identical.
func (c forkCase) check(t *testing.T) string {
	var scratch, forked delta.Recorder
	cfgA := c.config(t)
	cfgA.Digest = &scratch
	want := Run(cfgA)

	cfgB := c.config(t)
	cfgB.Digest = &forked
	got, err := runForked(cfgB, c.ForkAt)
	if err != nil {
		return fmt.Sprintf("runForked failed: %v", err)
	}
	if w, err := delta.FirstDivergentWindow(scratch.Chain(), forked.Chain()); err != nil {
		return fmt.Sprintf("chain comparison failed: %v", err)
	} else if w != -1 {
		return fmt.Sprintf("digest chains diverge at window %d", w)
	}
	if !reflect.DeepEqual(want, got) {
		return "results differ despite identical digest chains"
	}
	return ""
}

// shrink greedily simplifies a failing case while it keeps failing: default
// the policies, drop thermal, shrink the topology, and bisect the fork time
// toward the middle of the run. The returned case is locally minimal.
func shrink(t *testing.T, c forkCase) forkCase {
	simpler := []func(forkCase) forkCase{
		func(c forkCase) forkCase { c.Thermal = false; return c },
		func(c forkCase) forkCase { c.Scheduler = HMP; return c },
		func(c forkCase) forkCase { c.Governor = Interactive; return c },
		func(c forkCase) forkCase { c.Cores = platform.Baseline(); return c },
		func(c forkCase) forkCase { c.App = "browser"; return c },
		func(c forkCase) forkCase { c.Seed = 1; return c },
		func(c forkCase) forkCase { c.ForkAt = propDuration / 2; return c },
	}
	for changed := true; changed; {
		changed = false
		for _, f := range simpler {
			cand := f(c)
			if cand == c {
				continue
			}
			if c.check(t) != "" && cand.check(t) != "" {
				c = cand
				changed = true
			}
		}
	}
	return c
}

// TestForkProperty drives randomized (config, fork time) pairs through the
// differential harness. Deterministically seeded; on failure it shrinks to
// a minimal failing case and reports it for pinning as a regression test.
func TestForkProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260807))
	appNames := []string{
		"browser", "fifa15", "virus_scanner", "youtube", "angry_bird", "pdf_reader",
	}
	study := []platform.CoreConfig{
		{Little: 4, Big: 4}, {Little: 4}, {Little: 2, Big: 2}, {Little: 1, Big: 1},
	}
	schedulers := []SchedulerKind{HMP, EfficiencyBased, ParallelismAware, EAS}
	governors := []GovernorKind{Interactive, Performance, Powersave, Ondemand, Conservative, PAST}

	const cases = 24
	for i := 0; i < cases; i++ {
		c := forkCase{
			App:       appNames[rng.Intn(len(appNames))],
			Cores:     study[rng.Intn(len(study))],
			Scheduler: schedulers[rng.Intn(len(schedulers))],
			Governor:  governors[rng.Intn(len(governors))],
			Thermal:   rng.Intn(3) == 0,
			Seed:      int64(1 + rng.Intn(5)),
			// Fork anywhere in (0, duration), including awkward unaligned times.
			ForkAt: event.Time(1 + rng.Int63n(int64(propDuration))),
		}
		if msg := c.check(t); msg != "" {
			min := shrink(t, c)
			t.Fatalf("fork divergence (case %d): %s\n  original: %s\n  shrunken: %s\n  shrunken failure: %s",
				i, msg, c, min, min.check(t))
		}
	}
}
