package analysis

import (
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/lab"
	"biglittle/internal/synth"
	"biglittle/internal/uarch"
)

// renderSlice renders a representative slice of the report — simulation-backed
// drivers spanning the cluster comparison, full characterization, and the
// parallel Fig6 microbenchmark grid, plus the four drivers built on memoized
// derived results (Figures 2-3, the L2 sweep, the predictor study) at a
// short trace length — for the determinism check.
func renderSlice(o Options) string {
	o.Instructions = 60_000
	return RenderFig4(Fig4(o)) +
		RenderTable3(Characterize(o)) +
		RenderFig6(Fig6(o)) +
		RenderFig2(Fig2(o)) +
		RenderFig3(Fig3(o)) +
		RenderCacheSweep(CacheSweep(o)) +
		RenderPredictors(PredictorStudy(o))
}

// TestReportDeterministicAcrossWorkersAndCache asserts the orchestrator's
// core guarantee: rendered report output is byte-identical whether jobs run
// on 1 worker or 8, and whether results and derived results come from fresh
// computation or the warm on-disk cache.
func TestReportDeterministicAcrossWorkersAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := func(r *lab.Runner) Options {
		return Options{Duration: 2 * event.Second, Seed: 1, Runner: r}
	}

	serial := renderSlice(opts(lab.New(1, nil)))
	parallel := renderSlice(opts(lab.New(8, nil)))
	if serial != parallel {
		t.Fatal("report output differs between 1 and 8 workers")
	}

	cache, err := lab.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coldRunner := lab.New(8, cache)
	cold := renderSlice(opts(coldRunner))
	if cold != serial {
		t.Fatal("cold-cache output differs from uncached output")
	}
	if s := coldRunner.Stats(); s.Simulated == 0 {
		t.Fatalf("cold stats = %+v, expected simulations", s)
	}

	warmRunner := lab.New(8, cache)
	warm := renderSlice(opts(warmRunner))
	if warm != serial {
		t.Fatal("warm-cache output differs from cold output")
	}
	s := warmRunner.Stats()
	if s.Simulated != 0 {
		t.Fatalf("warm stats = %+v, expected every simulation served from cache", s)
	}
	if s.Hits == 0 || s.Hits != coldRunner.Stats().Jobs {
		t.Fatalf("warm stats = %+v, want %d hits", s, coldRunner.Stats().Jobs)
	}
	if s.MemoMisses != 0 || s.MemoHits == 0 {
		t.Fatalf("warm stats = %+v, want every derived result read back from the cache", s)
	}
}

// TestUarchRunSparseSharesEntry pins uarchRun's key: a run at the profile's
// default trace length (Instructions 0) and its explicit twin are one
// derived result, computed once.
func TestUarchRunSparseSharesEntry(t *testing.T) {
	cache, err := lab.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := lab.New(1, cache)
	p := synth.SPEC()[0]
	p.Instructions = 30_000
	sparse := Options{Runner: r}.uarchRun(uarch.CortexA7(), p, 1300)
	explicit := Options{Runner: r, Instructions: p.Instructions}.uarchRun(uarch.CortexA7(), p, 1300)
	if sparse != explicit {
		t.Fatalf("sparse %+v != explicit %+v", sparse, explicit)
	}
	if s := r.Stats(); s.MemoMisses != 1 || s.MemoHits != 1 {
		t.Fatalf("stats = %+v, want the explicit call to hit the sparse call's entry", s)
	}
}
