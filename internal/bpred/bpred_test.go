package bpred

import (
	"math"
	"runtime"
	"testing"

	"biglittle/internal/synth"
)

func loopTrace(period, n int) []Branch {
	out := make([]Branch, n)
	for i := 0; i < n; i++ {
		out[i] = Branch{Site: 7, Taken: (i+1)%period != 0}
	}
	return out
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 || !c.taken() {
		t.Fatalf("counter %d after saturating taken", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 || c.taken() {
		t.Fatalf("counter %d after saturating not-taken", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	// A heavily-taken loop branch: bimodal should mispredict only the exits.
	tr := loopTrace(10, 10000)
	rate := Measure(NewBimodal(512), tr)
	// Exits are 10% of branches; bimodal mispredicts each exit (and the
	// first post-exit iteration at worst): expect ~10%, far below 50%.
	if rate > 0.15 {
		t.Fatalf("bimodal mispredict %.3f on a 90%%-taken loop", rate)
	}
	if static := Measure(StaticTaken{}, tr); static < 0.09 || static > 0.11 {
		t.Fatalf("static-taken baseline %.3f, want ~0.10", static)
	}
}

func TestGShareLearnsPattern(t *testing.T) {
	// A short loop's exit is perfectly predictable from history: gshare
	// approaches zero mispredicts, bimodal stays stuck at the exit rate.
	tr := loopTrace(4, 20000)
	g := Measure(NewGShare(4096, 10), tr)
	b := Measure(NewBimodal(512), tr)
	if g > b/2 {
		t.Fatalf("gshare %.4f not clearly better than bimodal %.4f on a periodic pattern", g, b)
	}
	if g > 0.05 {
		t.Fatalf("gshare mispredict %.4f on a period-4 loop, want near zero", g)
	}
}

func TestCorrelatedBranch(t *testing.T) {
	// A branch that repeats the previous outcome: invisible to bimodal
	// (50/50 per site), captured by gshare's history.
	tr := make([]Branch, 20000)
	prev := true
	r := uint32(12345)
	for i := range tr {
		r = r*1664525 + 1013904223
		if i%2 == 0 {
			prev = r%100 < 50
			tr[i] = Branch{Site: 1, Taken: prev}
		} else {
			tr[i] = Branch{Site: 2, Taken: prev} // copies branch 1
		}
	}
	g := Measure(NewGShare(4096, 10), tr)
	b := Measure(NewBimodal(512), tr)
	if g > 0.35 || g > b {
		t.Fatalf("gshare %.3f vs bimodal %.3f on correlated branches", g, b)
	}
}

func TestTraceDeterministic(t *testing.T) {
	p, _ := synth.ProfileByName("gobmk")
	a := Trace(p, 5000)
	b := Trace(p, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d", i)
		}
	}
}

func TestTraceDifficultyTracksProfile(t *testing.T) {
	easy, _ := synth.ProfileByName("libquantum") // mispredict 0.01
	hard, _ := synth.ProfileByName("gobmk")      // mispredict 0.10
	pe := Measure(NewBimodal(512), Trace(easy, 50000))
	ph := Measure(NewBimodal(512), Trace(hard, 50000))
	if pe >= ph {
		t.Fatalf("bimodal mispredicts: easy %.3f >= hard %.3f", pe, ph)
	}
}

// Calibration validation: across the SPEC profiles, the A15-class gshare
// resolves a substantial share of the A7-class bimodal's mispredictions —
// consistent with the uarch model's PredictorFactor of 0.55.
func TestPredictorFactorCalibration(t *testing.T) {
	var sumRatio float64
	n := 0
	for _, p := range synth.SPEC() {
		tr := Trace(p, 60000)
		b := Measure(CortexA7Predictor(), tr)
		g := Measure(CortexA15Predictor(), tr)
		if b <= 0 {
			continue
		}
		if g > b*1.05 {
			t.Errorf("%s: gshare (%.4f) worse than bimodal (%.4f)", p.Name, g, b)
		}
		sumRatio += g / b
		n++
	}
	avg := sumRatio / float64(n)
	if avg < 0.3 || avg > 0.85 {
		t.Errorf("measured predictor factor %.2f outside the calibrated 0.55 band [0.3, 0.85]", avg)
	}
	t.Logf("measured gshare/bimodal mispredict ratio: %.2f (uarch assumes 0.55)", avg)
}

func TestPredictorNames(t *testing.T) {
	if NewBimodal(10).Name() != "bimodal" || NewGShare(10, 4).Name() != "gshare" ||
		(StaticTaken{}).Name() != "static-taken" {
		t.Fatal("names")
	}
}

func TestMeasureEmpty(t *testing.T) {
	if Measure(NewBimodal(16), nil) != 0 {
		t.Fatal("empty trace")
	}
	if r := MeasureStream(synth.SPEC()[0], 0, NewBimodal(16)); len(r) != 1 || r[0] != 0 {
		t.Fatalf("empty stream rates = %v", r)
	}
}

// The streamed measurement must see the same branch sequence as Measure over
// a stored Trace: every predictor's rate equal bit for bit, on every profile.
func TestMeasureStreamMatchesTrace(t *testing.T) {
	const n = 60_000
	preds := func() []Predictor {
		return []Predictor{StaticTaken{}, CortexA7Predictor(), CortexA15Predictor(), NewGShare(4096, 10)}
	}
	for _, p := range synth.SPEC() {
		got := MeasureStream(p, n, preds()...)
		tr := Trace(p, n)
		for i, pr := range preds() {
			if want := Measure(pr, tr); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("%s %s: streamed rate %v, Measure over Trace %v", p.Name, pr.Name(), got[i], want)
			}
		}
	}
}

// A streamed measurement stores no branch: measuring 400k branches
// allocates what measuring 50k does.
func TestMeasureStreamAllocsFlat(t *testing.T) {
	p, _ := synth.ProfileByName("gobmk")
	allocated := func(n int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MeasureStream(p, n, StaticTaken{}, CortexA7Predictor(), CortexA15Predictor())
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	allocated(1000) // first use
	short, long := allocated(50_000), allocated(400_000)
	if d := long - short; d > 1<<10 || d < -1<<10 {
		t.Fatalf("400k branches allocated %d bytes, 50k allocated %d: want equal within 1 KiB", long, short)
	}
}
