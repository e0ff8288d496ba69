package xray

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/event"
)

const ms = event.Millisecond

// chainTracer records a canonical wake → migration → freq → throttle →
// hotplug chain on cluster 1 plus an unrelated wake on cluster 0.
func chainTracer() *Tracer {
	x := New()
	x.Wake(0, 7, "other.task", 0, 0, "placed on cpu0", "wake", nil, nil)
	x.Wake(10*ms, 3, "br.render", 1, 0, "placed on cpu1", "wake",
		[]Input{{"load", 120}, {"up_threshold", 700}},
		[]Candidate{{Core: 1, Type: "little", QueueLen: 0}, {Core: 2, Type: "little", QueueLen: 1, Rejected: "deeper-queue"}})
	x.Migration(140*ms, 3, "br.render", 1, 4, 1, "cpu1 -> cpu4", "up-threshold",
		[]Input{{"load", 812}, {"up_threshold", 700}},
		[]Candidate{{Core: 4, Type: "big", QueueLen: 0}, {Core: 5, Type: "big", QueueLen: 2, Rejected: "deeper-queue"}})
	x.FreqStep(160*ms, 1, 1000, 1600, "cluster1 1000 -> 1600 MHz", "scale-up",
		[]Input{{"max_util_pct", 92}}, nil)
	x.Throttle(400*ms, 1, 1400, "cap cluster1 at 1400 MHz", "throttle",
		[]Input{{"temp_c", 76.2}, {"trip_c", 75}})
	x.Hotplug(410*ms, 5, 1, "cpu5 offline", "hotplug",
		[]Input{{"temp_c", 86.1}})
	return x
}

func TestCausalChain(t *testing.T) {
	x := chainTracer()
	d := x.Dump()
	if len(d.Spans) != 6 {
		t.Fatalf("spans = %d, want 6", len(d.Spans))
	}
	// IDs are assigned in order: 0 other-wake, 1 wake, 2 migration, 3 freq,
	// 4 throttle, 5 hotplug.
	wantParent := map[int64]int64{0: -1, 1: -1, 2: 1, 3: 2, 4: 3, 5: 4}
	for _, s := range d.Spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d (%s): parent = %d, want %d", s.ID, s.Kind, s.Parent, wantParent[s.ID])
		}
	}

	anc := d.Ancestors(5)
	if len(anc) != 4 {
		t.Fatalf("Ancestors(5) = %d spans, want 4", len(anc))
	}
	if anc[0].Kind != KindThrottle || anc[3].Kind != KindWake {
		t.Errorf("ancestor order wrong: closest=%s furthest=%s", anc[0].Kind, anc[3].Kind)
	}

	desc := d.Descendants(1)
	if len(desc) != 4 {
		t.Fatalf("Descendants(1) = %d spans, want 4", len(desc))
	}
	if desc[0].Kind != KindMigration || desc[3].Kind != KindHotplug {
		t.Errorf("descendant order wrong: first=%s last=%s", desc[0].Kind, desc[3].Kind)
	}
	// The unrelated wake (span 0) must appear in neither walk.
	for _, s := range append(anc, desc...) {
		if s.ID == 0 {
			t.Errorf("span 0 leaked into the causal walk of span 1's chain")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	x := chainTracer()
	data, err := x.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "migration"`) {
		t.Errorf("dump should name kinds as strings:\n%s", data)
	}
	d, err := ParseDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != x.Len() {
		t.Fatalf("round-trip spans = %d, want %d", len(d.Spans), x.Len())
	}
	for i, s := range d.Spans {
		orig := x.Spans()[i]
		if s.ID != orig.ID || s.Kind != orig.Kind || s.Parent != orig.Parent || s.At != orig.At {
			t.Errorf("span %d changed in round trip: %+v != %+v", i, s, orig)
		}
	}
	if _, err := ParseDump([]byte("{nope")); err == nil {
		t.Error("ParseDump should reject invalid JSON")
	}
}

func TestRingEviction(t *testing.T) {
	x := New()
	x.MaxSpans = 4
	for i := 0; i < 10; i++ {
		x.Wake(event.Time(i)*ms, i, "t", 0, 0, "w", "wake", nil, nil)
	}
	if x.Len() != 4 {
		t.Fatalf("Len = %d, want 4", x.Len())
	}
	if x.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", x.Dropped())
	}
	spans := x.Spans()
	for i, s := range spans {
		if want := int64(6 + i); s.ID != want {
			t.Errorf("spans[%d].ID = %d, want %d (oldest-first order)", i, s.ID, want)
		}
	}
	// A link to an evicted parent terminates the walk instead of failing.
	d := x.Dump()
	if _, ok := d.Get(0); ok {
		t.Error("evicted span still retrievable")
	}
	if got := d.Ancestors(9); len(got) != 0 {
		t.Errorf("Ancestors of a root = %d spans, want 0", len(got))
	}
}

func TestTaskSpanNear(t *testing.T) {
	x := chainTracer()
	d := x.Dump()

	// At t=140ms exactly, the migration span is the answer.
	s, ok := d.TaskSpanNear("br.render", 140*ms)
	if !ok || s.Kind != KindMigration {
		t.Fatalf("TaskSpanNear(140ms) = %+v, %v; want the migration", s, ok)
	}
	// Before the migration, the wake.
	s, ok = d.TaskSpanNear("br.render", 50*ms)
	if !ok || s.Kind != KindWake {
		t.Fatalf("TaskSpanNear(50ms) = %+v, %v; want the wake", s, ok)
	}
	// Before any span for the task: earliest span after.
	s, ok = d.TaskSpanNear("br.render", 0)
	if !ok || s.Kind != KindWake {
		t.Fatalf("TaskSpanNear(0) = %+v, %v; want the wake", s, ok)
	}
	if _, ok := d.TaskSpanNear("nope", 0); ok {
		t.Error("TaskSpanNear found a span for an unknown task")
	}
}

func TestFormat(t *testing.T) {
	x := chainTracer()
	d := x.Dump()
	mig, _ := d.Get(2)
	out := mig.Format()
	for _, want := range []string{"migration", "inputs:", "up_threshold=700", "candidates:", "CHOSEN", "rejected: deeper-queue"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(mig.Line(), "br.render") {
		t.Errorf("Line() should name the task: %s", mig.Line())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		var back Kind
		if err := back.UnmarshalJSON([]byte(`"` + k.String() + `"`)); err != nil || back != k {
			t.Errorf("kind %v did not round-trip: %v %v", k, back, err)
		}
	}
	var k Kind
	if err := k.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("UnmarshalJSON accepted an unknown kind")
	}
}

func TestSameDecision(t *testing.T) {
	a := Span{ID: 3, Parent: 1, At: 5, Kind: KindWake, Task: 0, TaskName: "t",
		Core: 4, FromCore: -1, Cluster: -1, Choice: "wake on cpu4",
		Inputs: []Input{{Name: "up_threshold", Value: 700}}}
	b := a
	b.ID, b.Parent = 99, 42 // identity differs
	b.Inputs = []Input{{Name: "up_threshold", Value: 350}}
	b.Candidates = []Candidate{{Core: 4}} // provenance differs
	if !a.SameDecision(b) {
		t.Fatal("spans differing only in identity/provenance must be the same decision")
	}
	c := a
	c.Core = 5
	if a.SameDecision(c) {
		t.Fatal("different destination core must not be the same decision")
	}
	d := a
	d.At++
	if a.SameDecision(d) {
		t.Fatal("different time must not be the same decision")
	}
}

// cloneSpans deep-copies spans, keeping nil slices nil.
func cloneSpans(spans []Span) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		if s.Inputs != nil {
			s.Inputs = append([]Input{}, s.Inputs...)
		}
		if s.Candidates != nil {
			s.Candidates = append([]Candidate{}, s.Candidates...)
		}
		out[i] = s
	}
	return out
}

// TestRingOwnsSpanStorage checks the ring's storage contract. The tracer
// copies an emitter's inputs and candidates, so the emitter may reuse its
// slices right away; a nil slice stays nil; and Spans and Dump are deep
// copies, which neither later spans nor the ring's reuse of its slot
// buffers when it wraps can change.
func TestRingOwnsSpanStorage(t *testing.T) {
	const max = 8
	x := New()
	x.MaxSpans = max
	inputs := make([]Input, 3)
	cands := make([]Candidate, 4)
	record := func(i int) {
		for j := range inputs {
			inputs[j] = Input{Name: fmt.Sprintf("in%d", j), Value: float64(100*i + j)}
		}
		for j := range cands {
			cands[j] = Candidate{Core: j, Type: "little", QueueLen: i, Rejected: fmt.Sprintf("r%d", i)}
		}
		switch i % 3 {
		case 0:
			x.Wake(event.Time(i), i, "t", 0, 0, "w", "", inputs, cands)
		case 1:
			x.FreqStep(event.Time(i), 0, 500, 600, "f", "", inputs[:1], nil)
		default:
			x.Hotplug(event.Time(i), 4, 1, "h", "", nil)
		}
	}
	for i := 0; i < max; i++ {
		record(i)
	}
	spans, dump := x.Spans(), x.Dump()
	want := cloneSpans(spans)
	for i, s := range want {
		if s.Kind == KindWake && (s.Inputs[0].Value != float64(100*i) || s.Candidates[0].QueueLen != i) {
			t.Fatalf("span %d holds its emitter's later values: %+v", i, s)
		}
		if s.Kind == KindHotplug && (s.Inputs != nil || s.Candidates != nil) {
			t.Fatalf("span %d recorded with nil slices has %v, %v", i, s.Inputs, s.Candidates)
		}
	}
	for i := max; i < 3*max; i++ {
		record(i)
	}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("Spans taken before the ring wrapped changed after %d more spans", 2*max)
	}
	if !reflect.DeepEqual(dump.Spans, want) {
		t.Errorf("Dump taken before the ring wrapped changed after %d more spans", 2*max)
	}
	if got := x.Spans()[0]; got.ID != 2*max {
		t.Fatalf("oldest retained span %d, want %d", got.ID, 2*max)
	}
}

// TestChoiceMatchesSprintf checks that every choice the emitters intern
// reads exactly as fmt.Sprintf renders it, and that a choice seen before
// comes back without allocating.
func TestChoiceMatchesSprintf(t *testing.T) {
	x := New()
	for _, c := range []struct {
		format string
		ints   [3]int
		strs   [2]string
		args   []any
	}{
		{"woke on cpu%d (%s)", [3]int{5}, [2]string{"big"}, []any{5, "big"}},
		{"woke pinned on cpu%d", [3]int{0}, [2]string{}, []any{0}},
		{"cpu%d (%s) -> cpu%d (%s)", [3]int{1, 7}, [2]string{"little", "big"}, []any{1, "little", 7, "big"}},
		{"cpu%d %s", [3]int{6}, [2]string{"offline"}, []any{6, "offline"}},
		{"cluster%d %d -> %d MHz", [3]int{1, 1900, 800}, [2]string{}, []any{1, 1900, 800}},
		{"cap cluster%d at %d MHz", [3]int{0, -1200}, [2]string{}, []any{0, -1200}},
		{"raise cluster%d cap to %d MHz", [3]int{1, 1700}, [2]string{}, []any{1, 1700}},
		{"release cluster%d cap", [3]int{1}, [2]string{}, []any{1}},
	} {
		want := fmt.Sprintf(c.format, c.args...)
		if got := x.Choice(c.format, c.ints, c.strs); got != want {
			t.Errorf("Choice(%q) = %q, want %q", c.format, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { x.Choice(c.format, c.ints, c.strs) }); allocs != 0 {
			t.Errorf("Choice(%q) seen before: %.0f allocs, want 0", c.format, allocs)
		}
	}
}

// FuzzParseDump holds the dump parser that bldiff and blserve's /diff read
// uploads with to two properties: it never panics, and on any input it
// accepts, encoding is a fixed point after one parse. The second property
// compares bytes rather than structs, because omitempty reads an empty
// slice back as nil.
func FuzzParseDump(f *testing.F) {
	data, err := chainTracer().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 2} {
		f.Add(data[:n])
	}
	f.Add([]byte(`{"spans":[{"kind":"wake","inputs":[],"candidates":[]}],"dropped":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDump(data)
		if err != nil {
			return
		}
		first, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatalf("encoding a parsed dump: %v", err)
		}
		again, err := ParseDump(first)
		if err != nil {
			t.Fatalf("parsing an encoded dump: %v\n%s", err, first)
		}
		second, err := json.MarshalIndent(again, "", "  ")
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode∘parse is not idempotent:\n%s\n---\n%s", first, second)
		}
	})
}
