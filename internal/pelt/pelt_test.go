package pelt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvergesToInput(t *testing.T) {
	tr := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr.Update(1, 1)
	}
	if l := tr.Load(); l != Scale {
		t.Fatalf("full-running load = %d, want %d", l, Scale)
	}
	tr2 := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr2.Update(0.5, 1)
	}
	if l := tr2.Load(); l < Scale/2-5 || l > Scale/2+5 {
		t.Fatalf("half-running load = %d, want ~%d", l, Scale/2)
	}
}

// The paper: "the 1ms-period load generated 32ms ago will be weighted by 50%".
func TestHalfLife(t *testing.T) {
	tr := NewTracker(32)
	tr.Update(1, 1) // one period of load, then idle
	initial := tr.LoadF()
	for i := 0; i < 32; i++ {
		tr.Update(0, 1)
	}
	after := tr.LoadF()
	if ratio := after / initial; math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("load retained %.3f after 32ms, want 0.50", ratio)
	}
}

func TestHalfLifeSweep(t *testing.T) {
	for _, hl := range []int{16, 32, 64} {
		tr := NewTracker(hl)
		tr.Update(1, 1)
		initial := tr.LoadF()
		for i := 0; i < hl; i++ {
			tr.Update(0, 1)
		}
		if ratio := tr.LoadF() / initial; math.Abs(ratio-0.5) > 0.01 {
			t.Errorf("half-life %d: retained %.3f, want 0.50", hl, ratio)
		}
		if tr.HalfLifeMs() != hl {
			t.Errorf("HalfLifeMs = %d, want %d", tr.HalfLifeMs(), hl)
		}
	}
}

// Frequency invariance: running flat-out at half the max frequency must
// converge to half scale — the normalization Algorithm 1 requires.
func TestFrequencyInvariance(t *testing.T) {
	tr := NewTracker(32)
	for i := 0; i < 1000; i++ {
		tr.Update(1, 0.5)
	}
	if l := tr.Load(); l < Scale/2-5 || l > Scale/2+5 {
		t.Fatalf("load at 50%% freq = %d, want ~%d", l, Scale/2)
	}
}

func TestUpdateNMatchesLoop(t *testing.T) {
	a, b := NewTracker(32), NewTracker(32)
	a.Update(1, 1) // establish some state
	b.Update(1, 1)
	for _, step := range []struct {
		n       int
		ran, fs float64
	}{{5, 0.3, 0.8}, {100, 1, 1}, {1, 0, 1}, {47, 0.9, 0.4}} {
		for i := 0; i < step.n; i++ {
			a.Update(step.ran, step.fs)
		}
		b.UpdateN(step.n, step.ran, step.fs)
		if math.Abs(a.LoadF()-b.LoadF()) > 1e-6 {
			t.Fatalf("UpdateN diverged from loop: %.6f vs %.6f", a.LoadF(), b.LoadF())
		}
	}
	b.UpdateN(0, 1, 1)
	b.UpdateN(-3, 1, 1) // no-ops
	if math.Abs(a.LoadF()-b.LoadF()) > 1e-6 {
		t.Fatal("non-positive UpdateN changed state")
	}
}

func TestDefaults(t *testing.T) {
	tr := NewTracker(0)
	if tr.HalfLifeMs() != DefaultHalfLifeMs {
		t.Fatalf("default half-life %d, want %d", tr.HalfLifeMs(), DefaultHalfLifeMs)
	}
	tr = NewTracker(-1)
	if tr.HalfLifeMs() != DefaultHalfLifeMs {
		t.Fatal("negative half-life not defaulted")
	}
}

func TestSetClamps(t *testing.T) {
	tr := NewTracker(32)
	tr.Set(2000)
	if tr.Load() != Scale {
		t.Fatal("Set above scale not clamped")
	}
	tr.Set(-10)
	if tr.Load() != 0 {
		t.Fatal("Set below zero not clamped")
	}
	tr.Set(512)
	if tr.Load() != 512 {
		t.Fatal("Set(512) lost")
	}
}

func TestInputClamping(t *testing.T) {
	a, b := NewTracker(32), NewTracker(32)
	a.Update(1.7, 2.0)
	b.Update(1, 1)
	if a.LoadF() != b.LoadF() {
		t.Fatal("out-of-range inputs not clamped")
	}
	a.Update(-1, -1)
	if a.LoadF() >= b.LoadF() {
		t.Fatal("negative inputs should decay like zero")
	}
}

// Property: load always stays within [0, Scale] and a higher constant input
// never yields a lower steady-state load.
func TestPropertyBounded(t *testing.T) {
	f := func(inputs []float64) bool {
		tr := NewTracker(32)
		for _, in := range inputs {
			tr.Update(in, 1)
			if tr.LoadF() < 0 || tr.LoadF() > Scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: monotonicity — feeding a pointwise-larger input sequence yields
// a load at least as large at every step.
func TestPropertyMonotone(t *testing.T) {
	f := func(seq []uint8) bool {
		lo, hi := NewTracker(32), NewTracker(32)
		for _, v := range seq {
			a := float64(v) / 255
			b := a + (1-a)/2
			lo.Update(a, 1)
			hi.Update(b, 1)
			if hi.LoadF() < lo.LoadF()-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An idle load decays into the subnormal range and sticks where load*y
// rounds back to load. The scheduler skips a settled sleeper's update, which
// is bit-exact only if every load at or below IdleFloor is a fixed point of
// the zero-input Update; the next subnormal must not be, or the floor is
// lower than it could be.
func TestIdleFloorIsFixedPoint(t *testing.T) {
	for _, hl := range []int{8, 16, 32, 64} {
		floor := IdleFloor(hl)
		if floor <= 0 {
			t.Fatalf("half-life %d: floor %g, want a positive subnormal", hl, floor)
		}
		tr := NewTracker(hl)
		for v := 0.0; v <= floor; v = math.Nextafter(v, 1) {
			for _, fs := range []float64{0, 0.5, 1} {
				tr.Set(v)
				tr.Update(0, fs)
				if got := tr.LoadF(); got != v {
					t.Fatalf("half-life %d: idle update moved %g to %g (floor %g)", hl, v, got, floor)
				}
			}
		}
		next := math.Nextafter(floor, 1)
		tr.Set(next)
		tr.Update(0, 1)
		if tr.LoadF() == next {
			t.Errorf("half-life %d: %g above the floor %g is a fixed point too", hl, next, floor)
		}
	}
	if got, want := IdleFloor(32), 23*math.SmallestNonzeroFloat64; got != want {
		t.Errorf("IdleFloor(32) = %g, want 23·2⁻¹⁰⁷⁴ = %g", got, want)
	}
	if IdleFloor(0) != IdleFloor(DefaultHalfLifeMs) {
		t.Error("IdleFloor(0) does not fall back to the default half-life")
	}
	// A full load left idle settles exactly at the floor (within ~35 s at
	// 32 ms), which is why the skip covers every long sleeper.
	tr := NewTracker(32)
	tr.Set(Scale)
	for i := 0; i < 40_000; i++ {
		tr.Update(0, 1)
	}
	if got := tr.LoadF(); got != IdleFloor(32) {
		t.Errorf("a full load idle for 40 s settled at %g, want the floor %g", got, IdleFloor(32))
	}
}
