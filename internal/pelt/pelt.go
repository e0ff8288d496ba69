// Package pelt implements the per-task load tracking the HMP scheduler uses
// (the paper's Algorithm 1): a geometric-decay average of per-millisecond
// runnable time, normalized by the current clock frequency so the tracked
// load is "an absolute load value independent from the current clock
// frequency". The decay is tuned so a 1 ms contribution from 32 ms ago
// carries half the weight of the current one — the paper's "time weight",
// swept as 2x / ½x in §VI-C.
package pelt

import "math"

// Scale is the fixed-point load scale: a task running continuously at a
// core's maximum frequency converges to Scale.
const Scale = 1024

// DefaultHalfLifeMs matches the paper: load from 32 ms ago is weighted 50%.
const DefaultHalfLifeMs = 32

// Tracker tracks one task's decayed CPU load. The zero value is unusable;
// use NewTracker. Time advances in 1 ms steps via Update, matching the
// paper's "1 millisecond granularity" load history.
type Tracker struct {
	halfLife int
	decay    float64 // per-step geometric factor y, y^halfLife = 0.5
	load     float64 // current decayed average in [0, Scale]
}

// NewTracker returns a tracker with the given half-life in milliseconds.
// Non-positive values fall back to the default.
func NewTracker(halfLifeMs int) *Tracker {
	halfLifeMs, decay := decayFor(halfLifeMs)
	return &Tracker{halfLife: halfLifeMs, decay: decay}
}

// decayFor resolves a half-life (non-positive means the default) to itself
// and its per-step decay factor y, y^halfLife = 0.5.
func decayFor(halfLifeMs int) (int, float64) {
	if halfLifeMs <= 0 {
		halfLifeMs = DefaultHalfLifeMs
	}
	return halfLifeMs, math.Pow(0.5, 1.0/float64(halfLifeMs))
}

// maxFloorSteps bounds IdleFloor's search. The floor at the default 32 ms
// half-life is 23 subnormal steps and at 64 ms it is 46; longer half-lives
// stop at this many steps, a lower but still exact floor.
const maxFloorSteps = 50

// IdleFloor returns the idle fixed point of a tracker with the given
// half-life: every load at or below it is left unchanged by an Update with
// no run time, because load*y rounds back to load. An idle load decays into
// the subnormal range and sticks there (about 23·2⁻¹⁰⁷⁴ at 32 ms), so a
// caller may skip the zero-input Update of a load at or below the floor and
// stay bit-exact. The search walks up one subnormal at a time and checks
// every step it returns, so it costs at most maxFloorSteps slow multiplies:
// compute it once per half-life, not per tracker.
func IdleFloor(halfLifeMs int) float64 {
	_, y := decayFor(halfLifeMs)
	floor := 0.0
	for k := 1; k <= maxFloorSteps; k++ {
		v := float64(k) * math.SmallestNonzeroFloat64
		if v*y != v {
			break
		}
		floor = v
	}
	return floor
}

// HalfLifeMs returns the configured half-life.
func (t *Tracker) HalfLifeMs() int { return t.halfLife }

// Update advances one 1 ms period. ranFrac is the fraction of the period the
// task spent running (or runnable, per HMP semantics), in [0,1]; freqScale is
// current/maximum frequency of the CPU it ran on, making the contribution
// frequency-invariant. Sleeping tasks are NOT updated ("if a task enters the
// sleep state, its load is not updated") — simply do not call Update.
func (t *Tracker) Update(ranFrac, freqScale float64) {
	if ranFrac < 0 {
		ranFrac = 0
	}
	if ranFrac > 1 {
		ranFrac = 1
	}
	if freqScale < 0 {
		freqScale = 0
	}
	if freqScale > 1 {
		freqScale = 1
	}
	contrib := Scale * ranFrac * freqScale
	t.load = t.load*t.decay + contrib*(1-t.decay)
}

// Load returns the tracked load in [0, Scale].
func (t *Tracker) Load() int { return int(t.load + 0.5) }

// LoadF returns the unrounded load.
func (t *Tracker) LoadF() float64 { return t.load }

// Set forces the load value (used when forking tasks inherit parent load).
func (t *Tracker) Set(load float64) {
	if load < 0 {
		load = 0
	}
	if load > Scale {
		load = Scale
	}
	t.load = load
}
