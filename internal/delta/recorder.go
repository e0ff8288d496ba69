// Package delta is the cross-run differential observability layer: state
// digest chains that fingerprint a run and make any two runs cheaply
// comparable, a first-divergence finder over those chains, and aligned
// structural diffing of results, profiles, and xray span streams with
// tolerance-aware significance marking.
//
// The Recorder follows the repo's pure-observer contract (telemetry, profile,
// xray, check): it subscribes to sched.System.OnTick, reads simulator state
// after SyncAll has settled it, and never writes back. A nil *Recorder is
// valid everywhere; recording off costs one pointer check and zero
// allocations, and recording on changes no simulated byte.
package delta

import (
	"fmt"
	"math"

	"biglittle/internal/event"
	"biglittle/internal/metrics"
	"biglittle/internal/sched"
	"biglittle/internal/thermal"
)

// FNV-1a constants, folded over whole uint64 words rather than bytes: the
// digest is a determinism fingerprint, not a cryptographic hash, and word
// folding keeps the per-tick cost at a handful of multiplies.
const (
	offset64 = 0xcbf29ce484222325
	prime64  = 0x100000001b3
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= prime64
	return h
}

func mixf(h uint64, x float64) uint64 { return mix(h, math.Float64bits(x)) }

// DefaultWindows is the target digest-chain length: enough resolution to
// bisect a run into ~millisecond windows, small enough to compare and ship
// around as a fingerprint.
const DefaultWindows = 1024

// Chain is a sealed digest chain: one cumulative digest per elapsed window.
// Digests chain (window i's digest folds window i-1's), so two runs agree on
// a prefix of windows iff their chains agree on that prefix, and the first
// differing index is the first window in which simulator state diverged.
type Chain struct {
	// Window is the window length the digests were folded over.
	Window event.Time `json:"window_ns"`
	// Digests holds one cumulative digest per window, in time order.
	Digests []uint64 `json:"digests"`
}

// Fingerprint returns the whole-run digest: the last chained window digest,
// or the FNV offset basis for an empty chain.
func (c Chain) Fingerprint() uint64 {
	if len(c.Digests) == 0 {
		return offset64
	}
	return c.Digests[len(c.Digests)-1]
}

// FirstDivergentWindow compares two chains and returns the index of the
// first differing window, or -1 if one chain is a prefix of the other and
// they agree everywhere both have digests (identical runs of equal duration
// return -1 with equal lengths). Comparing chains folded over different
// window lengths is a category error and returns an error.
func FirstDivergentWindow(a, b Chain) (int, error) {
	if a.Window != b.Window {
		return 0, fmt.Errorf("delta: chains have different windows (%v vs %v); re-record with a common window", a.Window, b.Window)
	}
	n := len(a.Digests)
	if len(b.Digests) < n {
		n = len(b.Digests)
	}
	for i := 0; i < n; i++ {
		if a.Digests[i] != b.Digests[i] {
			return i, nil
		}
	}
	return -1, nil
}

// Step is one full-rate state capture: the exact per-component values folded
// into the digest at one scheduler tick, kept only inside the Recorder's
// [FullFrom, FullTo) range so a second diagnostic pass can name which
// component diverged first and by how much.
type Step struct {
	At    event.Time `json:"at"`
	Fired uint64     `json:"fired"` // event-engine fires so far
	// Per-cluster frequency state.
	FreqMHz []int `json:"freq_mhz"`
	CapMHz  []int `json:"cap_mhz"`
	// Per-core state.
	Online   []bool       `json:"online"`
	QueueLen []int        `json:"queue_len"`
	BusyNs   []event.Time `json:"busy_ns"`
	// Per-task state, index-aligned with TaskNames.
	TaskNames  []string  `json:"task_names"`
	TaskLoad   []int     `json:"task_load"`
	TaskCPU    []int     `json:"task_cpu"`
	TaskQueued []int     `json:"task_queued"`
	TaskState  []string  `json:"task_state"`
	TaskWork   []float64 `json:"task_work"`
	Migrations []int     `json:"migrations"`
	// Whole-system signals.
	EnergyMJ float64   `json:"energy_mj"`
	TempC    []float64 `json:"temp_c,omitempty"`
	// Digest is this single tick's fold (not the chained window digest).
	Digest uint64 `json:"digest"`
}

// Recorder folds a rolling hash of simulator state — event-engine fires,
// task placements and loads, per-core queues and busy time, per-cluster
// frequency and caps, temperatures, meter energy — into chained per-window
// digests at every scheduler tick. Configure before Attach; zero value
// records DefaultWindows windows and no full-rate steps.
type Recorder struct {
	// Window is the digest window length. Zero means duration/DefaultWindows
	// (floored at one scheduler tick), resolved at Attach.
	Window event.Time
	// FullFrom/FullTo bound full-rate Step capture: every tick in
	// [FullFrom, FullTo) stores a Step. FullTo <= FullFrom (the zero value)
	// disables capture.
	FullFrom, FullTo event.Time

	sys     *sched.System
	sampler *metrics.Sampler
	therm   *thermal.Model

	window event.Time
	cur    int64  // index of the window acc is folding
	acc    uint64 // current window accumulator
	cum    uint64 // chained digest through the last sealed window
	dirty  bool   // acc has folded at least one tick since the last seal
	sealed []uint64
	steps  []Step
}

// Attach subscribes the recorder to the system's scheduler tick. sampler and
// therm may be nil (their components are simply not folded); duration sizes
// the default window and preallocates the chain so steady-state recording
// allocates nothing.
func (r *Recorder) Attach(sys *sched.System, sampler *metrics.Sampler, therm *thermal.Model, duration event.Time) {
	if r == nil || r.sys == sys {
		return
	}
	if r.sys != nil {
		// Re-attachment to a different system: a forked continuation rebuilt
		// the world (core.Resume) and this recorder's chain spans the fork.
		// Move the subscription, keep the window and the accumulated digests.
		r.sys, r.sampler, r.therm = sys, sampler, therm
		sys.OnTick(r.onTick)
		return
	}
	r.sys, r.sampler, r.therm = sys, sampler, therm
	r.window = r.Window
	if r.window <= 0 {
		r.window = duration / DefaultWindows
	}
	if tick := event.Time(sys.Cfg.TickMs) * event.Millisecond; r.window < tick {
		r.window = tick
	}
	r.acc, r.cum = offset64, offset64
	if duration > 0 {
		r.sealed = make([]uint64, 0, duration/r.window+2)
	}
	sys.OnTick(r.onTick)
}

// onTick folds one tick of state. Ticks land at multiples of the scheduler
// tick starting at tick 1; a tick at exactly a window boundary opens the new
// window (window i covers [i*window, (i+1)*window)).
func (r *Recorder) onTick(now event.Time) {
	idx := int64(now / r.window)
	for r.cur < idx {
		r.seal()
	}

	full := now >= r.FullFrom && now < r.FullTo
	var st Step
	if full {
		st = Step{At: now}
	}

	d := uint64(offset64)
	d = mix(d, uint64(now))
	fired := r.sys.Eng.Fired()
	d = mix(d, fired)
	soc := r.sys.SoC
	for i := range soc.Clusters {
		cl := &soc.Clusters[i]
		d = mix(d, uint64(cl.CurMHz))
		d = mix(d, uint64(cl.CapMHz))
		if full {
			st.FreqMHz = append(st.FreqMHz, cl.CurMHz)
			st.CapMHz = append(st.CapMHz, cl.CapMHz)
		}
	}
	for i := range soc.Cores {
		on := uint64(0)
		if soc.Cores[i].Online {
			on = 1
		}
		q := r.sys.QueueLen(i)
		busy := r.sys.BusyNs(i)
		d = mix(d, on)
		d = mix(d, uint64(q))
		d = mix(d, uint64(busy))
		d = mix(d, uint64(r.sys.DeepIdleNs(i)))
		if full {
			st.Online = append(st.Online, soc.Cores[i].Online)
			st.QueueLen = append(st.QueueLen, q)
			st.BusyNs = append(st.BusyNs, busy)
		}
	}
	for _, t := range r.sys.Tasks() {
		d = mix(d, uint64(t.CurState()))
		d = mix(d, uint64(uint32(t.CPU())))
		d = mix(d, uint64(t.Load()))
		d = mix(d, uint64(t.Queued()))
		d = mix(d, uint64(t.Migrations))
		d = mixf(d, t.TotalWork)
		if full {
			st.TaskNames = append(st.TaskNames, t.Name)
			st.TaskLoad = append(st.TaskLoad, t.Load())
			st.TaskCPU = append(st.TaskCPU, t.CPU())
			st.TaskQueued = append(st.TaskQueued, t.Queued())
			st.TaskState = append(st.TaskState, t.CurState().String())
			st.TaskWork = append(st.TaskWork, t.TotalWork)
			st.Migrations = append(st.Migrations, t.Migrations)
		}
	}
	if r.sampler != nil {
		e := r.sampler.EnergyMJ()
		d = mixf(d, e)
		if full {
			st.EnergyMJ = e
		}
	}
	if r.therm != nil {
		for _, c := range r.therm.TempC {
			d = mixf(d, c)
		}
		if full {
			st.TempC = append(st.TempC, r.therm.TempC...)
		}
	}

	r.acc = mix(r.acc, d)
	r.dirty = true
	if full {
		st.Fired = fired
		st.Digest = d
		r.steps = append(r.steps, st)
	}
}

// seal closes the current window: chains its accumulator into the cumulative
// digest, appends the window digest, and opens the next window. Windows with
// no ticks still seal (their empty accumulator chains through), so chains
// from equal-duration runs are index-aligned.
func (r *Recorder) seal() {
	r.cum = mix(r.cum, r.acc)
	r.sealed = append(r.sealed, r.cum)
	r.acc = offset64
	r.dirty = false
	r.cur++
}

// Chain returns the digest chain recorded so far, sealing a copy of the
// pending partial window (if any ticks folded into it) without mutating the
// recorder — Chain may be called mid-run and again later.
func (r *Recorder) Chain() Chain {
	if r == nil {
		return Chain{}
	}
	out := Chain{Window: r.window, Digests: append([]uint64(nil), r.sealed...)}
	if r.dirty {
		out.Digests = append(out.Digests, mix(r.cum, r.acc))
	}
	return out
}

// Steps returns the full-rate captures recorded inside [FullFrom, FullTo).
func (r *Recorder) Steps() []Step {
	if r == nil {
		return nil
	}
	return r.steps
}

// ResolvedWindow returns the window length in effect after Attach (the
// explicit Window, or the duration-derived default).
func (r *Recorder) ResolvedWindow() event.Time {
	if r == nil {
		return 0
	}
	return r.window
}
