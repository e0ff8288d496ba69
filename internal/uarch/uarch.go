// Package uarch models the Cortex-A15 ("big") and Cortex-A7 ("little") core
// microarchitectures at the fidelity the paper's §III-A experiments need: a
// trace-driven CPI model that charges base issue cycles, branch misprediction
// penalties, and memory stalls computed by running the synthetic address
// stream through the real set-associative cache simulator.
//
// The model reproduces the two mechanisms the paper identifies behind the
// big/little performance gap: (i) wider out-of-order issue with latency
// hiding versus narrow in-order execution, and (ii) the 2 MB versus 512 KB
// L2, which makes cache-sensitive workloads diverge by up to ~4.5x at equal
// frequency.
package uarch

import (
	"runtime"
	"slices"
	"sync"

	"biglittle/internal/cache"
	"biglittle/internal/synth"
)

// Model describes one core microarchitecture.
type Model struct {
	Name string

	IssueWidth    int     // superscalar issue slots
	IPCEfficiency float64 // fraction of nominal workload ILP the pipeline extracts
	BranchPenalty float64 // cycles lost per mispredicted branch (pipeline depth)
	// PredictorFactor scales the workload's misprediction rate; the A15's
	// larger predictor resolves a portion of the A7's mispredictions.
	PredictorFactor float64

	OutOfOrder bool
	// MaxMLP caps the overlappable outstanding misses (OoO window / MSHRs).
	MaxMLP float64
	// ShortStallExposed is the fraction of an L2-hit latency the pipeline
	// cannot hide (low for OoO cores).
	ShortStallExposed float64
	// StoreStallExposed is the fraction of store miss latency exposed
	// (store buffers hide most of it).
	StoreStallExposed float64

	L1I cache.Config
	L1D cache.Config
	L2  cache.Config

	L2LatencyCycles float64 // L1-miss-to-L2-hit penalty
	MemLatencyNs    float64 // L2-miss-to-DRAM penalty in wall time

	MinFreqMHz int
	MaxFreqMHz int
}

// CortexA7 returns the little-core model per Table I of the paper.
func CortexA7() Model {
	return Model{
		Name:              "Cortex-A7",
		IssueWidth:        2,
		IPCEfficiency:     0.60, // in-order issue stalls on dependences
		BranchPenalty:     9,
		PredictorFactor:   1.0,
		OutOfOrder:        false,
		MaxMLP:            1.4, // non-blocking L1 + next-line prefetch
		ShortStallExposed: 0.90,
		StoreStallExposed: 0.35,
		L1I:               cache.Config{Name: "A7.L1I", SizeB: 32 << 10, Ways: 2, LineB: 32},
		L1D:               cache.Config{Name: "A7.L1D", SizeB: 32 << 10, Ways: 4, LineB: 64},
		L2:                cache.Config{Name: "A7.L2", SizeB: 512 << 10, Ways: 8, LineB: 64},
		L2LatencyCycles:   10,
		MemLatencyNs:      80,
		MinFreqMHz:        500,
		MaxFreqMHz:        1300,
	}
}

// CortexA15 returns the big-core model per Table I of the paper.
func CortexA15() Model {
	return Model{
		Name:              "Cortex-A15",
		IssueWidth:        3,
		IPCEfficiency:     1.0,
		BranchPenalty:     16,
		PredictorFactor:   0.55,
		OutOfOrder:        true,
		MaxMLP:            4.5,
		ShortStallExposed: 0.30,
		StoreStallExposed: 0.10,
		L1I:               cache.Config{Name: "A15.L1I", SizeB: 32 << 10, Ways: 2, LineB: 64},
		L1D:               cache.Config{Name: "A15.L1D", SizeB: 32 << 10, Ways: 2, LineB: 64},
		L2:                cache.Config{Name: "A15.L2", SizeB: 2 << 20, Ways: 16, LineB: 64},
		L2LatencyCycles:   21,
		MemLatencyNs:      80,
		MinFreqMHz:        800,
		MaxFreqMHz:        1900,
	}
}

// Result summarizes one trace run on one core model at one frequency.
type Result struct {
	Core         string
	Workload     string
	FreqMHz      int
	Instructions int
	Cycles       float64
	Seconds      float64
	CPI          float64
	IPC          float64

	L1IMissRate float64
	L1DMissRate float64
	L2MissRate  float64

	BaseCycles   float64
	BranchCycles float64
	MemCycles    float64
	FetchCycles  float64
}

// Penalty-event codes recorded by trace and replayed by Run. Only the two
// memory-side weights depend on frequency, but all four are recorded so the
// replayed additions interleave in exactly the trace order.
const (
	evL2Load = iota
	evMemLoad
	evL2Store
	evMemStore
)

// runTrace is the frequency-independent outcome of simulating one
// (model, profile, instructions) trace: the three accumulators whose weights
// do not depend on frequency, the ordered sequence of memory-penalty events
// (whose weights do), and the final cache statistics.
type runTrace struct {
	base, branch, fetch         float64
	memEvents                   []uint8
	l1iStats, l1dStats, l2Stats cache.Stats
}

type runKey struct {
	m            Model
	p            synth.Profile
	instructions int
}

var (
	runMu   sync.Mutex
	runMemo = map[runKey]*runTrace{}
)

// Run replays the profile's deterministic trace on the core model at the
// given frequency. instructions overrides the profile's default trace length
// when positive (used by short benchmark runs).
//
// The cache/branch behaviour of a trace does not depend on frequency —
// frequency only scales the DRAM-stall weights — so the simulated trace is
// memoized per (model, profile, length) and each frequency point replays the
// recorded penalty events with its own weights. The replayed float additions
// happen in the identical order the direct simulation performed them, so
// results are bit-identical to simulating every frequency from scratch.
func Run(m Model, p synth.Profile, freqMHz int, instructions int) Result {
	if instructions <= 0 {
		instructions = p.Instructions
	}
	key := runKey{m: m, p: p, instructions: instructions}
	runMu.Lock()
	tr, ok := runMemo[key]
	runMu.Unlock()
	if !ok {
		tr = trace(m, p, instructions)
		runMu.Lock()
		if len(runMemo) >= 64 {
			clear(runMemo) // bound memory across long parameter sweeps
		}
		runMemo[key] = tr
		runMu.Unlock()
	}

	mlp := 1.0
	if m.OutOfOrder {
		mlp = min(m.MaxMLP, p.MLP)
	} else {
		mlp = min(m.MaxMLP, p.MLP)
		if mlp < 1 {
			mlp = 1
		}
	}
	memLatCycles := m.MemLatencyNs * float64(freqMHz) / 1000.0

	weights := [4]float64{
		evL2Load:   m.L2LatencyCycles * m.ShortStallExposed,
		evMemLoad:  memLatCycles / mlp,
		evL2Store:  m.L2LatencyCycles * m.StoreStallExposed,
		evMemStore: memLatCycles / mlp * m.StoreStallExposed,
	}
	// The replay is one chain of dependent additions, kept in trace order so
	// the sum is bit-identical. It is unrolled by four, and the event codes
	// (all below 4) are masked to drop the bounds checks: rolled, the loop
	// ran up to half again slower whenever the linker placed it across a
	// 64-byte instruction line (measured on a 2-vCPU Xeon VM).
	var mem float64
	evs := tr.memEvents
	for len(evs) >= 4 {
		mem += weights[evs[0]&3]
		mem += weights[evs[1]&3]
		mem += weights[evs[2]&3]
		mem += weights[evs[3]&3]
		evs = evs[4:]
	}
	for _, ev := range evs {
		mem += weights[ev&3]
	}

	cycles := tr.base + tr.branch + mem + tr.fetch
	return Result{
		Core:         m.Name,
		Workload:     p.Name,
		FreqMHz:      freqMHz,
		Instructions: instructions,
		Cycles:       cycles,
		Seconds:      cycles / (float64(freqMHz) * 1e6),
		CPI:          cycles / float64(instructions),
		IPC:          float64(instructions) / cycles,
		L1IMissRate:  tr.l1iStats.MissRate(),
		L1DMissRate:  tr.l1dStats.MissRate(),
		L2MissRate:   tr.l2Stats.MissRate(),
		BaseCycles:   tr.base,
		BranchCycles: tr.branch,
		MemCycles:    mem,
		FetchCycles:  tr.fetch,
	}
}

// scratch is the working storage of one trace: its three caches, its
// instruction stream, whose random source is reseeded for each trace, and
// the event log it grows before copying it out at its final length.
type scratch struct {
	l1i, l1d, l2 cache.Cache
	stream       synth.Stream
	events       []uint8
}

// idle is the free list of scratch sets not in use by a trace. It keeps at
// most GOMAXPROCS sets, so the memory it retains is bounded by the number of
// concurrent traces times the largest geometry each has seen. It is a plain
// list rather than a sync.Pool because a GC empties a pool, and a report
// would then re-allocate its caches mid-run.
var (
	idleMu sync.Mutex
	idle   []*scratch
)

func getScratch() *scratch {
	idleMu.Lock()
	defer idleMu.Unlock()
	n := len(idle)
	if n == 0 {
		return new(scratch)
	}
	s := idle[n-1]
	idle[n-1] = nil
	idle = idle[:n-1]
	return s
}

func putScratch(s *scratch) {
	idleMu.Lock()
	defer idleMu.Unlock()
	if len(idle) < runtime.GOMAXPROCS(0) {
		idle = append(idle, s)
	}
}

// trace simulates the full instruction trace once, recording every
// frequency-dependent penalty as an event code instead of a cost.
func trace(m Model, p synth.Profile, instructions int) *runTrace {
	s := getScratch()
	defer putScratch(s)
	s.l1i.Reshape(m.L1I)
	s.l1d.Reshape(m.L1D)
	s.l2.Reshape(m.L2)
	l1i := &s.l1i
	h := &cache.Hierarchy{L1D: &s.l1d, L2: &s.l2}
	prefill(l1i, h, p)

	effIssue := min(float64(m.IssueWidth), p.ILP*m.IPCEfficiency)
	if effIssue < 0.5 {
		effIssue = 0.5
	}

	st := &s.stream
	st.Reset(p)
	// Per-instruction costs are loop-invariant; hoisting them preserves the
	// exact float64 values the in-loop expressions produced (each is the same
	// left-to-right computation, evaluated once).
	issueCost := 1 / effIssue
	brPenalty := m.BranchPenalty * m.PredictorFactor
	l1iLineB := uint64(m.L1I.LineB)

	tr := &runTrace{}
	events := s.events[:0]
	lastFetchLine := uint64(1) << 62 // sentinel: forces first fetch
	redirected := false
	var buf [256]synth.Instr
	for done := 0; done < instructions; {
		n := instructions - done
		if n > len(buf) {
			n = len(buf)
		}
		st.NextBatch(buf[:n])
		done += n
		for i := 0; i < n; i++ {
			in := &buf[i]
			tr.base += issueCost

			// Instruction fetch: access L1I once per line crossed. Sequential
			// refills are hidden by next-line fetch-ahead; only misses on the
			// fetch immediately following a taken-branch redirect stall the
			// front end (refill from L2 — code footprints fit L2 everywhere).
			fl := in.NextPC / l1iLineB
			if fl != lastFetchLine {
				lastFetchLine = fl
				if !l1i.Access(in.NextPC) && redirected {
					tr.fetch += m.L2LatencyCycles
				}
				redirected = false
			}
			if in.Kind == synth.Branch && in.Taken {
				redirected = true
			}

			switch in.Kind {
			case synth.Branch:
				if in.Mispredicted {
					// The better big-core predictor resolves a fraction of them.
					tr.branch += brPenalty
				}
			case synth.Load:
				switch h.Access(in.Addr) {
				case cache.L2:
					events = append(events, evL2Load)
				case cache.Memory:
					events = append(events, evMemLoad)
				}
			case synth.Store:
				switch h.Access(in.Addr) {
				case cache.L2:
					events = append(events, evL2Store)
				case cache.Memory:
					events = append(events, evMemStore)
				}
			}
		}
	}

	s.events = events
	tr.memEvents = slices.Clone(events)
	tr.l1iStats = l1i.Stats()
	tr.l1dStats = h.L1D.Stats()
	tr.l2Stats = h.L2.Stats()
	return tr
}

// prefill warms the caches with the workload's footprint so the measured
// window sees steady-state behaviour rather than cold misses — the paper's
// SPEC runs execute billions of instructions, amortizing cold misses to
// nothing. The cold working set is streamed first and the hot set last, so
// LRU keeps the hot region resident exactly as a steady-state run would.
func prefill(l1i *cache.Cache, h *cache.Hierarchy, p synth.Profile) {
	const dataBase = 1 << 32 // must match synth's data segment base
	for a := uint64(0); a < p.WorkingSetB; a += 64 {
		h.Access(dataBase + p.HotSetB + a)
	}
	for a := uint64(0); a < p.HotSetB; a += 64 {
		h.Access(dataBase + a)
	}
	for a := uint64(0); a < p.CodeFootprintB; a += uint64(l1i.Config().LineB) {
		l1i.Access(a)
	}
	h.L1D.ResetStats()
	h.L2.ResetStats()
	l1i.ResetStats()
}

// Speedup returns tBaseline/tCandidate given two results for the same
// workload (higher means candidate is faster).
func Speedup(candidate, baseline Result) float64 {
	if candidate.Seconds == 0 {
		return 0
	}
	// Normalize to per-instruction time so different trace lengths compare.
	ct := candidate.Seconds / float64(candidate.Instructions)
	bt := baseline.Seconds / float64(baseline.Instructions)
	return bt / ct
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
