package biglittle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"biglittle"
	"biglittle/internal/core"
	"biglittle/internal/governor"
)

// Metamorphic properties: relations between runs that must hold whatever the
// absolute numbers are. They catch model regressions that point assertions
// on single runs cannot — a governor that silently stops scaling, a uarch
// model whose big cores got slower than little ones, a microbenchmark whose
// duty knob disconnects.

// Same seed, same config — bit-identical results. This is the foundation the
// lab cache, the golden corpus, and every "compare two runs" test stand on.
func TestMetamorphicSeedDeterminism(t *testing.T) {
	app, err := biglittle.AppByName("video_player")
	if err != nil {
		t.Fatal(err)
	}
	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = 2 * biglittle.Second
	a := biglittle.Run(cfg)
	b := biglittle.Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical configs diverged:\n a: %+v\n b: %+v", a, b)
	}
	cfg.Seed = 2
	c := biglittle.Run(cfg)
	if c.EnergyMJ == a.EnergyMJ && c.HMPMigrations == a.HMPMigrations {
		t.Fatal("different seeds produced an identical run; the seed is not reaching the workload")
	}
}

// Raising a pinned cluster frequency never decreases the work a saturated
// workload completes (§IV-D: performance is monotone in frequency).
func TestMetamorphicFrequencyMonotonic(t *testing.T) {
	stress := biglittle.Stress(4)
	run := func(cores biglittle.CoreConfig, pinned map[int]int) float64 {
		cfg := biglittle.DefaultConfig(stress)
		cfg.Duration = 2 * biglittle.Second
		cfg.Cores = cores
		cfg.Governor = biglittle.Userspace
		cfg.PinnedMHz = pinned
		return biglittle.Run(cfg).TotalWorkGc
	}

	prev := 0.0
	for _, mhz := range []int{800, 1100, 1500, 1900} {
		work := run(biglittle.BaselineCores(), map[int]int{0: 1300, 1: mhz})
		if work < prev {
			t.Fatalf("raising the big cluster to %d MHz decreased completed work: %.3f -> %.3f Gc", mhz, prev, work)
		}
		prev = work
	}

	prev = 0.0
	for _, mhz := range []int{500, 700, 900, 1100, 1300} {
		work := run(biglittle.CoreConfig{Little: 4}, map[int]int{0: mhz, 1: 800})
		if work < prev {
			t.Fatalf("raising the little cluster to %d MHz decreased completed work: %.3f -> %.3f Gc", mhz, prev, work)
		}
		prev = work
	}
}

// On every SPEC-like profile a big core beats a little core at the same
// frequency, and by no more than the microarchitectural ceiling — a 3-wide
// out-of-order core cannot be more than 8x a 2-wide in-order one.
func TestMetamorphicBigLittleSpeedupBounds(t *testing.T) {
	big, little := biglittle.CortexA15(), biglittle.CortexA7()
	for _, p := range biglittle.SPECProfiles() {
		a7 := biglittle.RunTrace(little, p, 1000, 0)
		a15 := biglittle.RunTrace(big, p, 1000, 0)
		s := biglittle.TraceSpeedup(a15, a7)
		if s < 1 {
			t.Errorf("%s: big core slower than little at the same frequency (speedup %.3f)", p.Name, s)
		}
		if s > 8 {
			t.Errorf("%s: speedup %.3f exceeds the uarch model's plausible ceiling of 8", p.Name, s)
		}
	}
}

// The §III-B utilization microbenchmark: doubling the duty cycle doubles the
// measured little-cluster utilization (within sampling noise), and the
// measured utilization tracks the requested duty.
func TestMetamorphicDutyCycleScaling(t *testing.T) {
	measure := func(duty int) float64 {
		cfg := biglittle.DefaultConfig(biglittle.Micro(duty, 1300, 0))
		cfg.Duration = 2 * biglittle.Second
		cfg.Cores = biglittle.CoreConfig{Little: 1}
		cfg.Governor = biglittle.Userspace
		cfg.PinnedMHz = map[int]int{0: 1300, 1: 800}
		return biglittle.Run(cfg).AvgLittleUtil
	}
	prev := 0.0
	for _, duty := range []int{10, 20, 40, 80} {
		util := measure(duty)
		if util <= prev {
			t.Fatalf("duty %d%%: utilization %.4f did not increase from %.4f", duty, util, prev)
		}
		want := float64(duty) / 100
		if ratio := util / want; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("duty %d%%: measured utilization %.4f is %.2fx the requested duty", duty, util, ratio)
		}
		prev = util
	}
}

// govKnobs are the knobs Knobs.Effective may reset, each with a setter that
// draws a legal value other than the knob's default.
var govKnobs = []struct {
	name string
	set  func(k *core.Knobs, rng *rand.Rand)
}{
	{"sample-ms", func(k *core.Knobs, rng *rand.Rand) { k.Gov.SampleMs = pick(rng, 10, 30, 40, 60, 100) }},
	{"target-load", func(k *core.Knobs, rng *rand.Rand) { k.Gov.TargetLoad = pick(rng, 50, 60, 80, 90, 99) }},
	{"down-threshold", func(k *core.Knobs, rng *rand.Rand) { k.Gov.DownThreshold = pick(rng, 20, 25, 30, 35, 40) }},
	{"pinned-mhz", func(k *core.Knobs, rng *rand.Rand) {
		k.PinnedMHz = map[int]int{0: pick(rng, 600, 900, 1300), 1: pick(rng, 900, 1400, 1900)}
	}},
}

func pick(rng *rand.Rand, vals ...int) int { return vals[rng.Intn(len(vals))] }

// inertRun is what TestMetamorphicInertKnobs compares of one config: its
// Result as JSON, its digest chain, and its snapshot at 1 s, both decoded
// (to fork from) and as the BLSNAP blob.
type inertRun struct {
	result []byte
	chain  biglittle.DigestChain
	snap   *biglittle.Snapshot
	blob   []byte
}

func observeInert(t *testing.T, cfg biglittle.Config) inertRun {
	t.Helper()
	var out inertRun
	rec := biglittle.NewDigestRecorder()
	cfg.Digest = rec
	res := biglittle.Run(cfg)
	out.chain = rec.Chain()
	var err error
	if out.result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	cfg.Digest = nil
	sim, err := biglittle.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(biglittle.Second)
	if out.snap, err = sim.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if out.blob, err = biglittle.EncodeSnapshot(out.snap); err != nil {
		t.Fatal(err)
	}
	return out
}

// resumeTo runs cfg's continuation from st to cfg.Duration.
func resumeTo(t *testing.T, cfg biglittle.Config, st *biglittle.Snapshot) []byte {
	t.Helper()
	sim, err := biglittle.Resume(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration)
	js, err := json.Marshal(sim.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// Knobs a governor never reads change nothing it simulates. Knobs.Effective
// records which knobs each governor reads, and the lab fingerprints, caches
// and dedups by that record, so this relation is what makes it trustworthy.
// For every governor (and one kind past the named ones, which runs
// interactive) under every scheduler, on a latency app, a game and a
// phase-heavy app at L4+B4 and L2+B1, a config whose every Gov tunable and
// pinned frequency is random must match its Effective twin byte for byte:
// the Result JSON, the digest chain and the BLSNAP blob at 1 s. On bbench
// under HMP at L4+B4, each twin also resumes from the other's 1 s prefix
// and must finish where its own prefix leads. Then the converse: every
// knob the record keeps for a governor must change some Result when
// changed alone, so the record cannot call a knob read that nothing reads.
func TestMetamorphicInertKnobs(t *testing.T) {
	if n := reflect.TypeOf(governor.InteractiveConfig{}).NumField(); n != len(govKnobs)-1 {
		t.Fatalf("governor.InteractiveConfig has %d fields, govKnobs sets %d: give the new field a setter", n, len(govKnobs)-1)
	}
	var appList []biglittle.App
	for _, name := range []string{"bbench", "fifa15", "encoder"} {
		app, err := biglittle.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		appList = append(appList, app)
	}
	coreList := []biglittle.CoreConfig{biglittle.BaselineCores(), {Little: 2, Big: 1}}
	var govs []core.GovernorKind
	for g := core.Interactive; g <= core.PAST+1; g++ {
		govs = append(govs, g)
	}
	rng := rand.New(rand.NewSource(1))
	randomize := func(k *core.Knobs) {
		for _, kn := range govKnobs {
			kn.set(k, rng)
		}
	}
	// configs lists governor g's configs, bbench under HMP at L4+B4 first.
	configs := func(g core.GovernorKind) []biglittle.Config {
		var out []biglittle.Config
		for _, sk := range policyGoldenScheds {
			for _, app := range appList {
				for _, cc := range coreList {
					cfg := biglittle.DefaultConfig(app)
					cfg.Duration = 2 * biglittle.Second
					cfg.Cores, cfg.Scheduler, cfg.Governor = cc, sk, g
					out = append(out, cfg)
				}
			}
		}
		return out
	}

	for _, g := range govs {
		for i, cfg := range configs(g) {
			randomize(&cfg.Knobs)
			twin := cfg
			twin.Knobs = cfg.Knobs.Effective()
			if reflect.DeepEqual(twin.Knobs, cfg.Knobs) {
				t.Fatalf("%v: the random config equals its Effective twin; the relation would test nothing", g)
			}
			name := fmt.Sprintf("%v/%v/%s/%v", g, cfg.Scheduler, cfg.App.Name, cfg.Cores)
			a, b := observeInert(t, cfg), observeInert(t, twin)
			if !bytes.Equal(a.result, b.result) {
				t.Errorf("%s: Gov %+v and PinnedMHz %v, reset by Effective, moved the Result", name, cfg.Gov, cfg.PinnedMHz)
				continue
			}
			if !reflect.DeepEqual(a.chain, b.chain) {
				t.Errorf("%s: inert knobs moved the digest chain", name)
			}
			if !bytes.Equal(a.blob, b.blob) {
				t.Errorf("%s: inert knobs moved the 1 s snapshot blob", name)
			}
			if i == 0 {
				if x, y := resumeTo(t, twin, a.snap), resumeTo(t, twin, b.snap); !bytes.Equal(x, y) {
					t.Errorf("%s: the twin resumed from the random config's prefix finished elsewhere than from its own", name)
				}
				if x, y := resumeTo(t, cfg, b.snap), resumeTo(t, cfg, a.snap); !bytes.Equal(x, y) {
					t.Errorf("%s: the random config resumed from its twin's prefix finished elsewhere than from its own", name)
				}
			}
		}
	}

	for _, g := range govs {
		for _, kn := range govKnobs {
			cands := configs(g)
			probe := cands[0].Knobs
			kn.set(&probe, rng)
			if reflect.DeepEqual(probe.Effective(), cands[0].Effective()) {
				continue // g does not read the knob: the relation above covers it
			}
			moved := false
			for _, cfg := range cands {
				changed := cfg
				kn.set(&changed.Knobs, rng)
				a, _ := json.Marshal(biglittle.Run(cfg))
				b, _ := json.Marshal(biglittle.Run(changed))
				if moved = !bytes.Equal(a, b); moved {
					break
				}
			}
			if !moved {
				t.Errorf("%v: Knobs.Effective keeps %s, but changing it moved no Result", g, kn.name)
			}
		}
	}
}
