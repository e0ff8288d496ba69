package uarch

import (
	"math"
	"runtime"
	"testing"

	"biglittle/internal/synth"
)

func resetMemos() {
	runMu.Lock()
	clear(runMemo)
	runMu.Unlock()
}

// The trace memo must be invisible: a Run served by replaying a recorded
// trace must equal — bit for bit, every float field — a Run that simulated
// the trace from scratch, regardless of which frequency recorded the trace.
func TestRunMemoBitIdentical(t *testing.T) {
	models := []Model{CortexA7(), CortexA15()}
	profiles := synth.SPEC()[:3]
	freqs := []int{800, 1300, 1900}
	const instr = 50_000

	for _, m := range models {
		for _, p := range profiles {
			// Reference: every frequency simulated on a cold memo.
			ref := make(map[int]Result, len(freqs))
			for _, f := range freqs {
				resetMemos()
				ref[f] = Run(m, p, f, instr)
			}
			// Warm replay: same key served from the memo.
			for _, f := range freqs {
				resetMemos()
				Run(m, p, f, instr)
				if got := Run(m, p, f, instr); got != ref[f] {
					t.Errorf("%s/%s@%d: warm replay diverged\n got %+v\nwant %+v", m.Name, p.Name, f, got, ref[f])
				}
			}
			// Cross-frequency replay: record at one frequency, replay at another.
			resetMemos()
			Run(m, p, freqs[0], instr)
			for _, f := range freqs[1:] {
				if got := Run(m, p, f, instr); got != ref[f] {
					t.Errorf("%s/%s@%d: cross-freq replay diverged\n got %+v\nwant %+v", m.Name, p.Name, f, got, ref[f])
				}
			}
		}
	}
}

// Different trace lengths must occupy distinct memo entries.
func TestRunMemoKeyedByLength(t *testing.T) {
	resetMemos()
	m, p := CortexA15(), synth.SPEC()[0]
	a := Run(m, p, 1300, 10_000)
	b := Run(m, p, 1300, 20_000)
	if a.Instructions != 10_000 || b.Instructions != 20_000 {
		t.Fatalf("instruction counts clobbered: %d, %d", a.Instructions, b.Instructions)
	}
	if a.Cycles == b.Cycles {
		t.Fatal("distinct trace lengths returned identical cycle counts")
	}
}

// A trace reuses its caches, its stream's random source and its event
// buffer: once warm-up traces of mcf, the profile with the most penalty
// events, have sized the scratch on both models, a trace allocates the
// event log it keeps and its recorded trace, whatever its geometry. The
// 4 KiB slack covers the log's round-up to its size class (at most 2 KiB
// at these lengths) and the 128-byte trace; a fresh random source alone is
// about 4.9 KB, so a trace that seeded one would fail. Each trace is
// measured three times and the least reading kept: about one test process
// in fifteen sees some 5 KB that the runtime allocates elsewhere land
// inside one reading.
func TestTraceAllocatesOnlyItsLog(t *testing.T) {
	const instr = 100_000
	models := []Model{CortexA7(), CortexA15()}
	mcf, _ := synth.ProfileByName("mcf")
	for _, m := range models {
		trace(m, mcf, instr)
	}
	for _, p := range synth.SPEC() {
		for _, m := range models {
			var log uint64
			got := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tr := trace(m, p, instr)
				runtime.ReadMemStats(&after)
				log = uint64(len(tr.memEvents))
				if n := after.TotalAlloc - before.TotalAlloc; n < got {
					got = n
				}
			}
			if got > log+4<<10 {
				t.Errorf("%s on %s: trace allocated %d bytes, want at most its %d-byte event log + 4 KiB",
					p.Name, m.Name, got, log)
			}
		}
	}
}
