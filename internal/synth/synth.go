// Package synth generates deterministic synthetic instruction and memory
// address streams standing in for the SPECCPU2006 binaries the paper runs in
// §III-A. A Profile captures the microarchitecturally relevant behaviour of
// one workload — instruction mix, exploitable ILP, branch predictability,
// memory-level parallelism, and data/code footprints with a hot/cold access
// skew — and Stream expands it into a reproducible per-instruction trace.
//
// The same profile always yields the identical trace regardless of which
// core model consumes it, so big-vs-little comparisons see the same work.
package synth

import (
	"hash/fnv"
	"math/rand"
)

// Kind classifies one synthetic instruction.
type Kind uint8

const (
	ALU Kind = iota
	Load
	Store
	Branch
)

// Instr is one element of a synthetic trace.
type Instr struct {
	Kind Kind
	// Addr is the data address for Load/Store, undefined otherwise.
	Addr uint64
	// Mispredicted marks a Branch that the (modeled) predictor missed.
	Mispredicted bool
	// Taken marks a Branch that redirects instruction fetch.
	Taken bool
	// Target is the fetch redirect address for taken branches.
	Target uint64
	// NextPC is the fetch address after this instruction retires — the value
	// Stream.PC() returns at this point in the trace. Batch consumers use it
	// for instruction-cache modeling without calling back into the stream.
	NextPC uint64
}

// Profile describes a SPEC-like workload statistically.
type Profile struct {
	Name string

	// Instruction mix; the ALU fraction is the remainder.
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64

	// ILP is the mean number of independent instructions available per
	// cycle; it caps superscalar issue on wide cores.
	ILP float64

	// MLP is the number of overlappable outstanding misses the workload
	// exposes; out-of-order cores exploit min(MLP, core window).
	MLP float64

	// MispredictRate is the fraction of branches mispredicted.
	MispredictRate float64
	// TakenRate is the fraction of branches taken (fetch redirects).
	TakenRate float64
	// FarJumpFrac is the fraction of taken branches that jump to a uniform
	// random spot in the code footprint; the rest land within ±512 B of the
	// current fetch address (loops and nearby calls dominate real code).
	FarJumpFrac float64

	// WorkingSetB is the total data footprint in bytes.
	WorkingSetB uint64
	// HotSetB is a small frequently-reused region; HotFrac of accesses go
	// there (captures the 90/10 locality of real programs).
	HotSetB uint64
	HotFrac float64
	// StreamFrac of the non-hot accesses walk sequentially (unit-stride)
	// through the working set; the rest are uniform random lines.
	StreamFrac float64

	// CodeFootprintB is the instruction footprint walked by fetch.
	CodeFootprintB uint64

	// Instructions is the trace length used for full experiment runs.
	Instructions int
}

// dataBase separates code and data address spaces so they do not alias.
const dataBase = 1 << 32

// Stream is a deterministic generator of the profile's instruction trace.
//
// The per-instruction loop is the hottest code in every SPEC experiment, so
// the stream draws directly from the underlying rand source (src) with
// inlined copies of math/rand's Float64 and Int63n derivations — bit-identical
// value streams, minus a layer of wrapper calls — and precomputes the
// cumulative instruction-mix thresholds once instead of re-summing the
// fractions on every draw.
type Stream struct {
	p         Profile
	rng       *rand.Rand
	src       rand.Source64 // same source rng wraps; nil only if unavailable
	pc        uint64
	loopBase  uint64
	streamPtr uint64

	// Cumulative mix thresholds: a uniform draw r selects Load below loadT,
	// Store below storeT, Branch below branchT, else ALU. Precomputed with
	// the same left-to-right additions the inline expressions used, so the
	// comparisons are bit-identical.
	loadT, storeT, branchT float64
}

// Reset makes s the start of p's trace. The stream is seeded purely by the
// profile name, so two streams for the same profile produce identical
// traces. A stream that has drawn before reseeds its random source instead
// of making one; seeding resets a source completely, so the trace is the
// same. The zero Stream is ready for Reset.
func (s *Stream) Reset(p Profile) {
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	seed := int64(h.Sum64())
	rng, src := s.rng, s.src
	if rng == nil {
		fresh := rand.NewSource(seed)
		rng = rand.New(fresh)
		src, _ = fresh.(rand.Source64)
	} else {
		rng.Seed(seed)
	}
	*s = Stream{
		p:       p,
		rng:     rng,
		src:     src,
		loadT:   p.LoadFrac,
		storeT:  p.LoadFrac + p.StoreFrac,
		branchT: p.LoadFrac + p.StoreFrac + p.BranchFrac,
	}
}

// f64 mirrors math/rand.(*Rand).Float64 over the stream's source: identical
// algorithm (including the astronomically rare resample at exactly 1.0), so
// the value sequence matches the wrapped rng draw-for-draw.
func (s *Stream) f64() float64 {
	if s.src == nil {
		return s.rng.Float64()
	}
	for {
		f := float64(s.src.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}

// i63n mirrors math/rand.(*Rand).Int63n over the stream's source, including
// the power-of-two mask shortcut and the modulo-bias rejection loop.
func (s *Stream) i63n(n int64) int64 {
	if s.src == nil {
		return s.rng.Int63n(n)
	}
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.src.Int63()
	for v > max {
		v = s.src.Int63()
	}
	return v % n
}

// PC returns the current fetch address (for instruction-cache modeling).
func (s *Stream) PC() uint64 { return s.pc }

// Next produces the next instruction in the trace.
func (s *Stream) Next() Instr {
	var one [1]Instr
	s.NextBatch(one[:])
	return one[0]
}

// NextBatch fills buf with the next len(buf) instructions of the trace —
// the same sequence len(buf) Next calls would produce. Consumers reuse one
// buffer across calls so bulk generation stays allocation-free and the
// stream's state loads are amortized over the batch.
func (s *Stream) NextBatch(buf []Instr) {
	p := &s.p
	for i := range buf {
		var in Instr
		r := s.f64()
		switch {
		case r < s.loadT:
			in.Kind = Load
			in.Addr = s.dataAddr()
		case r < s.storeT:
			in.Kind = Store
			in.Addr = s.dataAddr()
		case r < s.branchT:
			in.Kind = Branch
			in.Mispredicted = s.f64() < p.MispredictRate
			in.Taken = s.f64() < p.TakenRate
			if in.Taken && p.CodeFootprintB > 0 {
				if s.f64() < p.FarJumpFrac {
					// Cold jump: relocate to a fresh region of the footprint
					// (a call into rarely-used code); the loop base moves too.
					in.Target = uint64(s.i63n(int64(p.CodeFootprintB))) &^ 3
					s.loopBase = in.Target
				} else {
					// Loop back-edge: return near the current loop base, which
					// the fetch stream has been re-executing — reproducing the
					// instruction-cache locality of loop-dominated code.
					t := s.loopBase + uint64(s.i63n(64))&^3
					if t >= p.CodeFootprintB {
						t = s.loopBase
					}
					in.Target = t
				}
			}
		default:
			in.Kind = ALU
		}
		// Advance fetch: sequential, redirected by taken branches.
		if in.Kind == Branch && in.Taken {
			s.pc = in.Target
		} else {
			s.pc += 4
			if p.CodeFootprintB > 0 && s.pc >= p.CodeFootprintB {
				s.pc = 0
			}
		}
		in.NextPC = s.pc
		buf[i] = in
	}
}

func (s *Stream) dataAddr() uint64 {
	if s.p.HotSetB > 0 && s.f64() < s.p.HotFrac {
		return dataBase + uint64(s.i63n(int64(s.p.HotSetB)))&^7
	}
	if s.f64() < s.p.StreamFrac {
		s.streamPtr += 8
		if s.streamPtr >= s.p.WorkingSetB {
			s.streamPtr = 0
		}
		return dataBase + s.p.HotSetB + s.streamPtr
	}
	span := int64(s.p.WorkingSetB)
	if span <= 0 {
		span = 64
	}
	return dataBase + s.p.HotSetB + uint64(s.i63n(span))&^7
}

const (
	kb = 1024
	mb = 1024 * 1024
)

// SPEC returns the 12 SPEC-like profiles used for Figures 2 and 3. Footprints
// and mixes are chosen so that cache-insensitive, compute-dense workloads
// (hmmer, h264ref) sit near the low end of the big-core speedup range and
// workloads whose working sets fit the big cluster's 2 MB L2 but overflow the
// little cluster's 512 KB L2 (mcf, omnetpp, xalancbmk, astar) sit near the
// 4.5x top end, matching the paper's Figure 2 spread.
func SPEC() []Profile {
	return []Profile{
		{
			Name: "perlbench", LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.21,
			ILP: 2.0, MLP: 1.6, MispredictRate: 0.05, TakenRate: 0.6, FarJumpFrac: 0.025,
			WorkingSetB: 640 * kb, HotSetB: 20 * kb, HotFrac: 0.80, StreamFrac: 0.2,
			CodeFootprintB: 160 * kb, Instructions: 400_000,
		},
		{
			Name: "bzip2", LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.15,
			ILP: 1.9, MLP: 1.8, MispredictRate: 0.06, TakenRate: 0.55, FarJumpFrac: 0.01,
			WorkingSetB: 300 * kb, HotSetB: 20 * kb, HotFrac: 0.80, StreamFrac: 0.35,
			CodeFootprintB: 24 * kb, Instructions: 400_000,
		},
		{
			Name: "gcc", LoadFrac: 0.27, StoreFrac: 0.13, BranchFrac: 0.20,
			ILP: 2.1, MLP: 2.0, MispredictRate: 0.04, TakenRate: 0.6, FarJumpFrac: 0.03,
			WorkingSetB: 900 * kb, HotSetB: 20 * kb, HotFrac: 0.82, StreamFrac: 0.25,
			CodeFootprintB: 256 * kb, Instructions: 400_000,
		},
		{
			Name: "mcf", LoadFrac: 0.35, StoreFrac: 0.09, BranchFrac: 0.19,
			ILP: 1.6, MLP: 3.5, MispredictRate: 0.05, TakenRate: 0.55, FarJumpFrac: 0.01,
			WorkingSetB: 1600 * kb, HotSetB: 16 * kb, HotFrac: 0.65, StreamFrac: 0.05,
			CodeFootprintB: 16 * kb, Instructions: 300_000,
		},
		{
			Name: "gobmk", LoadFrac: 0.25, StoreFrac: 0.13, BranchFrac: 0.21,
			ILP: 1.7, MLP: 1.3, MispredictRate: 0.10, TakenRate: 0.6, FarJumpFrac: 0.03,
			WorkingSetB: 180 * kb, HotSetB: 20 * kb, HotFrac: 0.85, StreamFrac: 0.2,
			CodeFootprintB: 512 * kb, Instructions: 400_000,
		},
		{
			Name: "hmmer", LoadFrac: 0.30, StoreFrac: 0.14, BranchFrac: 0.08,
			ILP: 3.4, MLP: 2.0, MispredictRate: 0.015, TakenRate: 0.5, FarJumpFrac: 0.005,
			WorkingSetB: 48 * kb, HotSetB: 20 * kb, HotFrac: 0.9, StreamFrac: 0.5,
			CodeFootprintB: 16 * kb, Instructions: 400_000,
		},
		{
			Name: "sjeng", LoadFrac: 0.22, StoreFrac: 0.09, BranchFrac: 0.21,
			ILP: 1.8, MLP: 1.3, MispredictRate: 0.09, TakenRate: 0.6, FarJumpFrac: 0.02,
			WorkingSetB: 170 * kb, HotSetB: 20 * kb, HotFrac: 0.85, StreamFrac: 0.15,
			CodeFootprintB: 64 * kb, Instructions: 400_000,
		},
		{
			Name: "libquantum", LoadFrac: 0.26, StoreFrac: 0.08, BranchFrac: 0.25,
			ILP: 2.6, MLP: 4.0, MispredictRate: 0.01, TakenRate: 0.7, FarJumpFrac: 0.005,
			WorkingSetB: 16 * mb, HotSetB: 4 * kb, HotFrac: 0.1, StreamFrac: 0.98,
			CodeFootprintB: 8 * kb, Instructions: 300_000,
		},
		{
			Name: "h264ref", LoadFrac: 0.35, StoreFrac: 0.12, BranchFrac: 0.08,
			ILP: 3.1, MLP: 2.2, MispredictRate: 0.02, TakenRate: 0.5, FarJumpFrac: 0.01,
			WorkingSetB: 280 * kb, HotSetB: 20 * kb, HotFrac: 0.85, StreamFrac: 0.6,
			CodeFootprintB: 96 * kb, Instructions: 400_000,
		},
		{
			Name: "omnetpp", LoadFrac: 0.34, StoreFrac: 0.18, BranchFrac: 0.21,
			ILP: 1.7, MLP: 2.8, MispredictRate: 0.04, TakenRate: 0.6, FarJumpFrac: 0.025,
			WorkingSetB: 1100 * kb, HotSetB: 16 * kb, HotFrac: 0.78, StreamFrac: 0.1,
			CodeFootprintB: 128 * kb, Instructions: 300_000,
		},
		{
			Name: "astar", LoadFrac: 0.31, StoreFrac: 0.09, BranchFrac: 0.17,
			ILP: 1.8, MLP: 2.4, MispredictRate: 0.06, TakenRate: 0.55, FarJumpFrac: 0.01,
			WorkingSetB: 800 * kb, HotSetB: 16 * kb, HotFrac: 0.80, StreamFrac: 0.1,
			CodeFootprintB: 16 * kb, Instructions: 300_000,
		},
		{
			Name: "xalancbmk", LoadFrac: 0.32, StoreFrac: 0.11, BranchFrac: 0.25,
			ILP: 1.9, MLP: 2.6, MispredictRate: 0.035, TakenRate: 0.65, FarJumpFrac: 0.03,
			WorkingSetB: 1000 * kb, HotSetB: 16 * kb, HotFrac: 0.80, StreamFrac: 0.15,
			CodeFootprintB: 320 * kb, Instructions: 300_000,
		},
	}
}

// ProfileByName returns the SPEC profile with the given name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range SPEC() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
