package explore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
)

func testSpace(t *testing.T) Space {
	t.Helper()
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig(app)
	base.Duration = 1 * event.Second
	return Space{
		Base: base,
		Dims: []Dim{
			{Key: "sample-ms", Values: []string{"20", "40", "60", "80"}},
			{Key: "target-load", Values: []string{"70", "80", "90", "95"}},
		},
	}
}

func TestSpaceEnumeration(t *testing.T) {
	s := testSpace(t)
	if got := s.Size(); got != 16 {
		t.Fatalf("Size = %d, want 16", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dims[0] varies fastest: index 1 moves sample-ms, index 4 target-load.
	if got := s.Desc(0); got != "sample-ms=20,target-load=70" {
		t.Fatalf("Desc(0) = %q", got)
	}
	if got := s.Desc(1); got != "sample-ms=40,target-load=70" {
		t.Fatalf("Desc(1) = %q", got)
	}
	if got := s.Desc(4); got != "sample-ms=20,target-load=80" {
		t.Fatalf("Desc(4) = %q", got)
	}
	cfg, err := s.Config(6) // sample-ms=60, target-load=80
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gov.SampleMs != 60 || cfg.Gov.TargetLoad != 80 {
		t.Fatalf("Config(6): SampleMs=%d TargetLoad=%d, want 60 and 80", cfg.Gov.SampleMs, cfg.Gov.TargetLoad)
	}
	if _, forkable, err := s.resolve(); err != nil || !forkable {
		t.Fatalf("governor-tunable space must be forkable (err %v)", err)
	}

	bad := s
	bad.Dims = append([]Dim{}, s.Dims...)
	bad.Dims = append(bad.Dims, Dim{Key: "sample-ms", Values: []string{"10"}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate dim must fail, got %v", err)
	}
	bad = s
	bad.Dims = []Dim{{Key: "warp-factor", Values: []string{"9"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown override key must fail Validate")
	}
	bad.Dims = []Dim{{Key: "sample-ms", Values: []string{"fast"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unparseable value must fail Validate")
	}
}

func TestParseSpec(t *testing.T) {
	dims, err := ParseSpec("# governor tunables\nsample-ms = 20, 40\n\ntarget-load=80,90 # late comment\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Dim{
		{Key: "sample-ms", Values: []string{"20", "40"}},
		{Key: "target-load", Values: []string{"80", "90"}},
	}
	if !reflect.DeepEqual(dims, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", dims, want)
	}
	if _, err := ParseSpec("sample-ms\n"); err == nil {
		t.Fatal("missing '=' must fail")
	}
	if _, err := ParseSpec("# only comments\n"); err == nil {
		t.Fatal("empty spec must fail")
	}
}

func TestLadderShape(t *testing.T) {
	D := 16 * event.Second
	rungs := ladder(1024, 4, 4, D, D/16, true)
	if len(rungs) != 5 { // 4 screening rungs + final
		t.Fatalf("rungs = %d, want 5: %+v", len(rungs), rungs)
	}
	final := rungs[len(rungs)-1]
	if final.Candidates != 4 || final.Duration != D || final.ForkAt != 0 {
		t.Fatalf("final rung %+v, want 4 candidates at full fidelity from scratch", final)
	}
	for i := 0; i < len(rungs)-1; i++ {
		rg := rungs[i]
		if rg.ForkAt <= 0 || rg.ForkAt >= rg.Duration {
			t.Fatalf("rung %d fork point %v outside (0, %v)", i, rg.ForkAt, rg.Duration)
		}
		if i > 0 {
			if rg.Candidates >= rungs[i-1].Candidates {
				t.Fatalf("rung %d candidates %d did not shrink", i, rg.Candidates)
			}
			if rg.Duration < rungs[i-1].Duration {
				t.Fatalf("rung %d duration %v shrank", i, rg.Duration)
			}
			// Fork points slide later (as a fraction) up the ladder: early
			// broad screening forks early, late refinement forks late.
			prev := float64(rungs[i-1].ForkAt) / float64(rungs[i-1].Duration)
			cur := float64(rg.ForkAt) / float64(rg.Duration)
			if cur <= prev {
				t.Fatalf("rung %d fork fraction %.2f not later than rung %d's %.2f", i, cur, i-1, prev)
			}
		}
	}
	if planned := plannedNs(rungs); planned*10 > int64(1024)*int64(D) {
		t.Fatalf("planned ladder %d ns not >=10x cheaper than exhaustive %d ns", planned, int64(1024)*int64(D))
	}

	// A space no bigger than keep degenerates to one exhaustive rung.
	rungs = ladder(3, 4, 4, D, D/16, true)
	if len(rungs) != 1 || rungs[0].Candidates != 3 || rungs[0].ForkAt != 0 || rungs[0].Duration != D {
		t.Fatalf("degenerate ladder %+v", rungs)
	}
	// An unforkable space screens from scratch.
	for _, rg := range ladder(64, 4, 4, D, D/16, false) {
		if rg.ForkAt != 0 {
			t.Fatalf("unforkable ladder has fork rung %+v", rg)
		}
	}
}

func TestFitBudget(t *testing.T) {
	D := 16 * event.Second
	full := plannedNs(ladder(1024, 4, 4, D, D/16, true))
	n0, err := fitBudget(1024, 4, 4, D, D/16, true, event.Time(full))
	if err != nil || n0 != 1024 {
		t.Fatalf("ample budget: n0=%d err=%v, want the whole space", n0, err)
	}
	n0, err = fitBudget(1024, 4, 4, D, D/16, true, event.Time(full/2))
	if err != nil || n0 >= 1024 || n0 < 4 {
		t.Fatalf("half budget: n0=%d err=%v, want a proper subsample", n0, err)
	}
	if got := plannedNs(ladder(n0, 4, 4, D, D/16, true)); got > full/2 {
		t.Fatalf("fitted ladder costs %d, over the %d budget", got, full/2)
	}
	if _, err := fitBudget(1024, 4, 4, D, D/16, true, D); err == nil {
		t.Fatal("budget below the final rung must fail")
	}
}

func TestSurvivorsKeepParetoFront(t *testing.T) {
	// Point 3 has the worst score but the lowest energy: pruning it would
	// lose a frontier point forever. Point 2 is dominated by point 1 and
	// outside the top-2, so it is the one pruned.
	pts := []rank{
		{index: 0, energyMJ: 10, delayS: 1, score: 1},
		{index: 1, energyMJ: 9, delayS: 2, score: 2},
		{index: 2, energyMJ: 9.5, delayS: 2.5, score: 3},
		{index: 3, energyMJ: 1, delayS: 9, score: 9},
	}
	got := survivors(pts, 2)
	if !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("survivors = %v, want [0 1 3] (top-2 by delay plus the energy-optimal frontier point)", got)
	}

	// The front bonus is capped at `want`: with every point non-dominated,
	// promotion tops out at 2*want, taking front members in score order.
	chain := make([]rank, 8)
	for i := range chain {
		chain[i] = rank{index: i, energyMJ: float64(10 - i), delayS: float64(1 + i), score: float64(1 + i)}
	}
	got = survivors(chain, 2)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("capped survivors = %v, want [0 1 2 3] (top-2 plus 2 front members by score)", got)
	}
}

// faithfulSpace is a space whose low-fidelity screening preserves the
// full-fidelity ranking: fifa15's steady game loop reaches its regime
// quickly, so a truncated run scores governors the way a full run does.
// Phase-heavy apps (bbench, encoder) reorder under truncation and are
// deliberately not used for exhaustive-equality tests.
func faithfulSpace(t *testing.T) Space {
	t.Helper()
	app, err := apps.ByName("fifa15")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig(app)
	base.Duration = 2 * event.Second
	return Space{
		Base: base,
		Dims: []Dim{
			{Key: "governor", Values: []string{
				"interactive", "performance", "powersave", "userspace",
				"ondemand", "conservative", "past",
			}},
		},
	}
}

// TestExploreMatchesExhaustive is the engine's core property: on a space
// small enough to enumerate, successive halving returns exactly the
// frontier an exhaustive full-fidelity sweep finds — same points, same
// winner, byte-identical winning result — for any seed (seeds only affect
// budget downsampling, which never triggers here).
func TestExploreMatchesExhaustive(t *testing.T) {
	space := faithfulSpace(t)
	for _, objective := range []Objective{Energy, EDP, Runtime} {
		for _, seed := range []int64{1, 7, 42} {
			opts := Options{Runner: &lab.Runner{Workers: 4}, Objective: objective, Eta: 2, Keep: 3, Seed: seed}
			rep, err := Run(space, opts)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := Exhaustive(space, Options{Runner: &lab.Runner{Workers: 4}, Objective: objective})
			if err != nil {
				t.Fatal(err)
			}
			if !SameFrontier(rep, ex) {
				t.Fatalf("objective %v seed %d: explore frontier %v differs from exhaustive %v",
					objective, seed, indices(rep.Frontier), indices(ex.Frontier))
			}
			if !reflect.DeepEqual(rep.Winner.Result, ex.Winner.Result) {
				t.Fatalf("objective %v seed %d: winner result differs from exhaustive", objective, seed)
			}
			if len(rep.Rungs) < 2 {
				t.Fatalf("objective %v: ladder did not screen (%d rungs)", objective, len(rep.Rungs))
			}
			pruned := 0
			for _, rg := range rep.Rungs {
				pruned += rg.Pruned
			}
			if pruned == 0 {
				t.Fatalf("objective %v: nothing pruned — the ladder did no work", objective)
			}
			if rep.SimulatedNs >= ex.SimulatedNs {
				t.Fatalf("objective %v: explore simulated %d ns, exhaustive only %d", objective, rep.SimulatedNs, ex.SimulatedNs)
			}
		}
	}
}

func indices(pts []Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.Index
	}
	return out
}

// TestExploreWarmRunSimulatesNothing pins the memoization property: a
// second exploration of the same space over the same cache serves every
// rung — continuations and prefixes included — from the result cache, and
// its rendered report is byte-identical to the cold run's.
func TestExploreWarmRunSimulatesNothing(t *testing.T) {
	space := testSpace(t)
	dir := t.TempDir()
	open := func() *lab.Runner {
		cache, err := lab.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &lab.Runner{Workers: 2, Cache: cache}
	}

	cold := open()
	rep1, err := Run(space, Options{Runner: cold, Objective: EDP, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Simulated == 0 {
		t.Fatal("cold run simulated nothing")
	}
	if rep1.SimulatedNs == 0 {
		t.Fatal("cold report claims zero simulated time")
	}

	warm := open()
	rep2, err := Run(space, Options{Runner: warm, Objective: EDP, Eta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Simulated != 0 || s.PrefixMisses != 0 {
		t.Fatalf("warm run Simulated=%d PrefixMisses=%d, want 0 and 0", s.Simulated, s.PrefixMisses)
	}
	if rep2.SimulatedNs != 0 {
		t.Fatalf("warm report SimulatedNs=%d, want 0", rep2.SimulatedNs)
	}

	var r1, r2 bytes.Buffer
	rep1.Render(&r1)
	rep2.Render(&r2)
	if r1.String() != r2.String() {
		t.Fatalf("warm report differs from cold:\n--- cold\n%s--- warm\n%s", r1.String(), r2.String())
	}
}

// TestExploreDeterministicAcrossWorkers: worker count changes scheduling,
// never the report.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	space := testSpace(t)
	var outs []string
	for _, workers := range []int{1, 8} {
		rep, err := Run(space, Options{Runner: &lab.Runner{Workers: workers}, Eta: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		outs = append(outs, buf.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("report depends on worker count:\n--- 1 worker\n%s--- 8 workers\n%s", outs[0], outs[1])
	}
}

// TestExploreIdentityDimDisablesFork: a dimension that rewrites snapshot
// identity (cores, seed) must screen from scratch — and still match
// exhaustive.
func TestExploreIdentityDimDisablesFork(t *testing.T) {
	seedSpace := Space{Dims: []Dim{{Key: "seed", Values: []string{"1", "2"}}}}
	if _, forkable, err := seedSpace.resolve(); err != nil || forkable {
		t.Fatalf("seed dimension must make the space unforkable (err %v)", err)
	}
	// Identity is what core compares, not a list of keys: a dimension whose
	// every value keeps Base's identity still forks.
	seedSpace.Dims[0].Values = []string{"0"}
	if _, forkable, err := seedSpace.resolve(); err != nil || !forkable {
		t.Fatalf("a seed dimension that keeps Base's seed must stay forkable (err %v)", err)
	}

	space := faithfulSpace(t)
	space.Dims = []Dim{
		{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4", "L2+B2", "L2"}},
		{Key: "governor", Values: []string{"interactive", "performance", "powersave"}},
	}
	if _, forkable, err := space.resolve(); err != nil || forkable {
		t.Fatalf("cores dimension must make the space unforkable (err %v)", err)
	}
	r := &lab.Runner{Workers: 4}
	rep, err := Run(space, Options{Runner: r, Eta: 2, Keep: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Forks != 0 {
		t.Fatalf("Forks=%d, want 0 on an identity-varying space", s.Forks)
	}
	ex, err := Exhaustive(space, Options{Runner: &lab.Runner{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !SameFrontier(rep, ex) {
		t.Fatalf("frontier %v differs from exhaustive %v", indices(rep.Frontier), indices(ex.Frontier))
	}
}

// TestExploreCheckAuditsFinalRung: Options.Check audits exactly the final
// full-fidelity rung and restores the runner's Check flag afterwards.
func TestExploreCheckAuditsFinalRung(t *testing.T) {
	space := testSpace(t)
	r := &lab.Runner{Workers: 2}
	rep, err := Run(space, Options{Runner: r, Eta: 2, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Check {
		t.Fatal("runner Check flag not restored after the final rung")
	}
	s := r.Stats()
	finalists := rep.Rungs[len(rep.Rungs)-1].Candidates
	if s.Audited != int64(finalists) {
		t.Fatalf("Audited=%d, want the %d finalists", s.Audited, finalists)
	}
	if s.Forks == 0 {
		t.Fatal("screening rungs should still fork when only the final rung is audited")
	}

	// A runner with Check set globally audits everything — so the engine
	// must not fork at all.
	ar := &lab.Runner{Workers: 2, Check: true}
	if _, err := Run(space, Options{Runner: ar, Eta: 2}); err != nil {
		t.Fatal(err)
	}
	if s := ar.Stats(); s.Forks != 0 || s.Audited == 0 {
		t.Fatalf("checking runner: Forks=%d Audited=%d, want 0 forks and full auditing", s.Forks, s.Audited)
	}
}

// TestExploreBudgetSampling: a budget too small for the space downsamples
// rung 0 deterministically per seed.
func TestExploreBudgetSampling(t *testing.T) {
	space := testSpace(t)
	D := space.Base.Duration
	full := plannedNs(ladder(16, 4, 2, D, D/16, true))
	opts := Options{Runner: &lab.Runner{Workers: 4}, Eta: 2, Budget: event.Time(full / 2), Seed: 3}
	rep, err := Run(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sampled || rep.Screened >= 16 || rep.Screened < 4 {
		t.Fatalf("Sampled=%v Screened=%d, want a proper subsample of 16", rep.Sampled, rep.Screened)
	}
	if rep.PlannedNs > full/2 {
		t.Fatalf("planned %d ns exceeds the %d budget", rep.PlannedNs, full/2)
	}

	opts.Runner = &lab.Runner{Workers: 4}
	rep2, err := Run(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indices(rep.Frontier), indices(rep2.Frontier)) {
		t.Fatal("same seed, same budget: sampling must be deterministic")
	}
}

// TestRepeatedRungSubmitsNothing: a rung whose (Duration, ForkAt) repeats
// its predecessor's takes its candidates' points from that rung, so on a
// cacheless runner the jobs submitted are exactly the candidates of the
// rungs that changed fidelity, and a repeated rung simulates nothing. The
// points it carries are the results a fresh run of its jobs gives; a final
// rung under Check still runs, so the audit sees every finalist.
func TestRepeatedRungSubmitsNothing(t *testing.T) {
	var cases []goldenCase
	for _, c := range goldenCases(t) {
		if c.name == "cores-repeat" || c.name == "flat" || c.name == "flat-check" {
			cases = append(cases, c)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("found %d of the 3 repeating golden cases", len(cases))
	}
	for _, c := range cases {
		r := &lab.Runner{Workers: 2}
		opts := c.opts
		opts.Runner = r
		rep, err := Run(c.space, opts)
		if err != nil {
			t.Fatal(err)
		}
		var jobs int64
		repeated := 0
		for ri, rg := range rep.Rungs {
			final := ri == len(rep.Rungs)-1
			if ri > 0 && rg.Duration == rep.Rungs[ri-1].Duration && rg.ForkAt == rep.Rungs[ri-1].ForkAt &&
				!(final && opts.Check) {
				repeated++
				if rg.SimulatedNs != 0 {
					t.Errorf("%s: repeated rung %d simulated %d ns, want 0", c.name, ri, rg.SimulatedNs)
				}
				continue
			}
			jobs += int64(rg.Candidates)
		}
		if repeated == 0 {
			t.Fatalf("%s: no rung repeats its predecessor's fidelity: %+v", c.name, rep.Rungs)
		}
		s := r.Stats()
		if s.Jobs != jobs {
			t.Errorf("%s: Stats.Jobs=%d, want %d, the candidates of the rungs that ran", c.name, s.Jobs, jobs)
		}
		final := rep.Rungs[len(rep.Rungs)-1]
		if opts.Check && s.Audited != int64(final.Candidates) {
			t.Errorf("%s: Audited=%d, want the %d finalists", c.name, s.Audited, final.Candidates)
		}

		// The frontier's points, carried from rung 0 when the final rung
		// repeats it, are what a fresh run of the final jobs gives.
		fresh := make([]lab.Job, len(rep.Frontier))
		for i, p := range rep.Frontier {
			cfg, err := c.space.Config(p.Index)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Duration = final.Duration
			fresh[i] = lab.Job{Config: cfg}
		}
		results, err := (&lab.Runner{Workers: 2}).RunAll(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range rep.Frontier {
			got, _ := json.Marshal(p.Result)
			want, _ := json.Marshal(results[i])
			if !bytes.Equal(got, want) {
				t.Errorf("%s: frontier point %d's result differs from a fresh run of its job", c.name, p.Index)
			}
		}
	}
}

// TestResolvedWriteAllocatesNothing: with every dimension value resolved
// once, writing a point's config into a job slot is a copy and a setter
// call per dimension, and agrees with Config for every point.
func TestResolvedWriteAllocatesNothing(t *testing.T) {
	app, err := apps.ByName("fifa15")
	if err != nil {
		t.Fatal(err)
	}
	space := Space{Base: core.DefaultConfig(app), Dims: []Dim{
		{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4", "L1+B1"}},
		{Key: "governor", Values: []string{"interactive", "performance", "past"}},
		{Key: "scheduler", Values: []string{"hmp", "eas"}},
		{Key: "sample-ms", Values: []string{"10", "60"}},
		{Key: "seed", Values: []string{"1", "9"}},
	}}
	rs, _, err := space.resolve()
	if err != nil {
		t.Fatal(err)
	}
	var job lab.Job
	for i := 0; i < space.Size(); i++ {
		rs.write(&job.Config, i)
		want, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(job.Config.Knobs, want.Knobs) || job.Config.Seed != want.Seed {
			t.Fatalf("point %d (%s): written config differs from Config", i, space.Desc(i))
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		rs.write(&job.Config, i%space.Size())
		i++
	}); allocs != 0 {
		t.Fatalf("writing a point allocates %.1f objects, want 0", allocs)
	}
}
