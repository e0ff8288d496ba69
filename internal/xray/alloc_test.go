package xray

import "testing"

// TestNilTracerZeroAlloc pins the repo-wide nil-observer contract for the
// tracer: every recording method on a nil *Tracer must be allocation-free,
// so leaving xray disabled costs nothing beyond the call-site pointer check
// (which BenchmarkSingleRun's alloc gate covers end to end).
func TestNilTracerZeroAlloc(t *testing.T) {
	var x *Tracer
	cases := map[string]func(){
		"Wake":      func() { x.Wake(0, 1, "t", 0, 0, "c", "r", nil, nil) },
		"Migration": func() { x.Migration(0, 1, "t", 0, 1, 0, "c", "r", nil, nil) },
		"FreqStep":  func() { x.FreqStep(0, 0, 1000, 1200, "c", "r", nil, nil) },
		"Throttle":  func() { x.Throttle(0, 0, 1400, "c", "r", nil) },
		"Hotplug":   func() { x.Hotplug(0, 0, 0, "c", "r", nil) },
		"Choice":    func() { x.Choice("cpu%d %s", [3]int{1}, [2]string{"online"}) },
		"Len":       func() { x.Len() },
		"Dropped":   func() { x.Dropped() },
		"Spans":     func() { x.Spans() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("nil tracer %s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestFullRingRecordsWithoutAllocating pins the enabled tracer's budget:
// once the ring is full and a decision's choice text has been seen, the
// tracer records it into the slot it overwrites, reusing that slot's input
// and candidate storage, and allocates nothing. The emitter's slices are
// stack arrays, as the scheduler's and governor's are.
func TestFullRingRecordsWithoutAllocating(t *testing.T) {
	x := New()
	x.MaxSpans = 16
	var task int
	record := func() {
		task = (task + 1) % 4
		inputs := [...]Input{{"load", float64(task)}, {"up_threshold", 700}}
		cands := [...]Candidate{{Core: task, Type: "big"}, {Core: 5, Type: "big", Rejected: "deeper-queue"}}
		x.Wake(0, task, "t", task, 1, x.Choice("woke on cpu%d (%s)", [3]int{task}, [2]string{"big"}), "", inputs[:], cands[:])
		x.FreqStep(0, 1, 800, 1200, x.Choice("cluster%d %d -> %d MHz", [3]int{1, 800, 1200}, [2]string{}), "scale-up", inputs[:1], cands[:])
		x.Hotplug(0, 5, 1, x.Choice("cpu%d %s", [3]int{5}, [2]string{"offline"}), "offline", nil)
	}
	for i := 0; i < 16; i++ {
		record()
	}
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("recording into a full ring: %.1f allocs per three spans, want 0", allocs)
	}
}
