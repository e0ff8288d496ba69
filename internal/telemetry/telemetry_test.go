package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"biglittle/internal/event"
)

func migAt(at event.Time, reason string) Event {
	return Event{At: at, Kind: KindMigration, Task: 1, TaskName: "t",
		FromCore: 0, Core: 4, Cluster: -1, Reason: reason, Value: 800}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Emit(migAt(0, ReasonUpThreshold))
	if c.Events() != nil || c.Dropped() != 0 || c.TotalEvents() != 0 {
		t.Fatal("nil collector recorded something")
	}
	if c.Count(KindMigration) != 0 || c.CountReason(KindMigration, ReasonUpThreshold) != 0 {
		t.Fatal("nil collector counted something")
	}
	if c.HMPMigrations() != 0 || c.FreqTransitions() != nil {
		t.Fatal("nil collector aggregated something")
	}
	// Registries hand out nil instruments whose methods are no-ops.
	c.Counter("x").Inc()
	c.Gauge("x").Set(1)
	c.Histogram("x").Observe(1)
	if c.Counter("x").Value() != 0 || c.Gauge("x").Value() != 0 || c.Histogram("x").Count() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if got := c.Summary(event.Second); !strings.Contains(got, "disabled") {
		t.Fatalf("nil Summary = %q", got)
	}
}

func TestCountsAndReasons(t *testing.T) {
	c := NewCollector()
	c.Emit(migAt(1*event.Millisecond, ReasonUpThreshold))
	c.Emit(migAt(2*event.Millisecond, ReasonUpThreshold))
	c.Emit(migAt(3*event.Millisecond, ReasonDownThreshold))
	c.Emit(migAt(4*event.Millisecond, ReasonBalance))
	c.Emit(migAt(5*event.Millisecond, ReasonPolicy))
	c.Emit(Event{At: 6 * event.Millisecond, Kind: KindWake, Task: 2, Core: 1, FromCore: -1, Cluster: -1})

	if got := c.Count(KindMigration); got != 5 {
		t.Fatalf("Count(migration) = %d, want 5", got)
	}
	if got := c.CountReason(KindMigration, ReasonUpThreshold); got != 2 {
		t.Fatalf("CountReason(up) = %d, want 2", got)
	}
	// HMP view excludes balance pulls and hotplug evictions.
	if got := c.HMPMigrations(); got != 4 {
		t.Fatalf("HMPMigrations = %d, want 4", got)
	}
	if got := c.TotalEvents(); got != 6 {
		t.Fatalf("TotalEvents = %d, want 6", got)
	}
}

func TestRingBufferDropsOldestKeepsAggregates(t *testing.T) {
	c := NewCollector()
	c.MaxEvents = 4
	for i := 0; i < 10; i++ {
		c.Emit(migAt(event.Time(i)*event.Millisecond, ReasonUpThreshold))
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered %d events, want 4", len(evs))
	}
	// Emission order preserved: the four newest, oldest first.
	for i, ev := range evs {
		want := event.Time(6+i) * event.Millisecond
		if ev.At != want {
			t.Fatalf("event %d at %v, want %v", i, ev.At, want)
		}
	}
	if c.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", c.Dropped())
	}
	// Aggregates survive the drops.
	if c.Count(KindMigration) != 10 || c.CountReason(KindMigration, ReasonUpThreshold) != 10 {
		t.Fatal("aggregates lost dropped events")
	}
}

// TestEventsCopyOutlivesWrap checks that Events returns a copy: taken
// before the ring wraps, it is unchanged by 2x MaxEvents further events.
func TestEventsCopyOutlivesWrap(t *testing.T) {
	const max = 50
	c := NewCollector()
	c.MaxEvents = max
	for i := 0; i < max; i++ {
		c.Emit(migAt(event.Time(i), ReasonUpThreshold))
	}
	evs := c.Events()
	want := append([]Event(nil), evs...)
	for i := max; i < 3*max; i++ {
		c.Emit(migAt(event.Time(i), ReasonDownThreshold))
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("Events taken before the ring wrapped changed after %d more events", 2*max)
	}
	if got := c.Events()[0].At; got != 2*max {
		t.Fatalf("oldest retained event at %v, want %v", got, event.Time(2*max))
	}
}

// TestEventRingAllocatesWhatItKeeps bounds what filling the default ring
// costs: emitting 3x DefaultMaxEvents events allocates at most 1.1x the
// bytes the full ring retains, where an append-grown slice would allocate
// about 5x.
func TestEventRingAllocatesWhatItKeeps(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	c := NewCollector()
	for i := 0; i < 3*DefaultMaxEvents; i++ {
		c.Emit(migAt(event.Time(i), ReasonUpThreshold))
	}
	runtime.ReadMemStats(&ms)
	kept := float64(DefaultMaxEvents * unsafe.Sizeof(Event{}))
	if got := float64(ms.TotalAlloc - before); got > 1.1*kept {
		t.Fatalf("emitting %d events allocated %.1f MB to keep %.1f MB (%.2fx), want at most 1.1x",
			3*DefaultMaxEvents, got/1e6, kept/1e6, got/kept)
	}
}

// TestFullRingEmitsWithoutAllocating pins Emit's budget: once the ring is
// full and its (kind, reason) and frequency have been seen, recording an
// event allocates nothing.
func TestFullRingEmitsWithoutAllocating(t *testing.T) {
	c := NewCollector()
	c.MaxEvents = 16
	emit := func() {
		c.Emit(migAt(event.Millisecond, ReasonUpThreshold))
		c.Emit(Event{Kind: KindFreq, Task: -1, Core: -1, FromCore: -1, Cluster: 1, MHz: 1400})
	}
	for i := 0; i < 16; i++ {
		emit()
	}
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Fatalf("emitting into a full ring: %.1f allocs per two events, want 0", allocs)
	}
}

func TestFreqTransitions(t *testing.T) {
	c := NewCollector()
	for _, mhz := range []int{800, 1900, 800, 800} {
		c.Emit(Event{Kind: KindFreq, Task: -1, Core: -1, FromCore: -1, Cluster: 1, MHz: mhz})
	}
	c.Emit(Event{Kind: KindFreq, Task: -1, Core: -1, FromCore: -1, Cluster: 0, MHz: 1300})
	ft := c.FreqTransitions()
	if ft[1][800] != 3 || ft[1][1900] != 1 || ft[0][1300] != 1 {
		t.Fatalf("FreqTransitions = %v", ft)
	}
}

func TestOnEventSubscriber(t *testing.T) {
	c := NewCollector()
	var seen []Kind
	c.OnEvent = func(ev Event) { seen = append(seen, ev.Kind) }
	c.Emit(migAt(0, ReasonUpThreshold))
	c.Emit(Event{Kind: KindBoost, Task: 1, Core: 0, FromCore: -1, Cluster: -1})
	if len(seen) != 2 || seen[0] != KindMigration || seen[1] != KindBoost {
		t.Fatalf("subscriber saw %v", seen)
	}
}

func TestInstruments(t *testing.T) {
	c := NewCollector()
	c.Counter("wakeups").Add(3)
	c.Counter("wakeups").Inc()
	c.Counter("wakeups").Add(-5) // ignored
	if got := c.Counter("wakeups").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	c.Gauge("temp").Set(61.5)
	if got := c.Gauge("temp").Value(); got != 61.5 {
		t.Fatalf("gauge = %v", got)
	}

	h := c.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("histogram basic stats wrong: n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	if p50 := h.Quantile(0.50); p50 < 50 || p50 > 51 {
		t.Fatalf("p50 = %v", p50)
	}
	if p95 := h.Quantile(0.95); p95 < 95 || p95 > 96 {
		t.Fatalf("p95 = %v", p95)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 100 {
		t.Fatal("extreme quantiles wrong")
	}
	// Observing after a sort-triggering read must not corrupt order.
	h.Observe(0.5)
	if h.Min() != 0.5 {
		t.Fatalf("min after late observe = %v", h.Min())
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Emit(migAt(1500*event.Microsecond, ReasonUpThreshold))
	c.Emit(Event{At: 2 * event.Millisecond, Kind: KindFreq, Task: -1, Core: -1,
		FromCore: -1, Cluster: 1, PrevMHz: 800, MHz: 1900})

	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want header + 2", len(rows))
	}
	if rows[0][0] != "at_ms" || rows[0][1] != "kind" || rows[0][9] != "reason" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][1] != "migration" || rows[1][0] != "1.500" || rows[1][9] != ReasonUpThreshold {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][1] != "freq" || rows[2][7] != "800" || rows[2][8] != "1900" {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.Emit(migAt(event.Millisecond, ReasonUpThreshold))
	c.Emit(Event{Kind: KindFreq, Task: -1, Core: -1, FromCore: -1, Cluster: 0, MHz: 1300})
	c.Counter("n").Inc()
	c.Gauge("g").Set(2)
	c.Histogram("h").Observe(10)

	data, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("JSON dump does not round-trip: %v", err)
	}
	if d.Counts["migration"] != 1 || d.Counts["freq"] != 1 {
		t.Fatalf("counts = %v", d.Counts)
	}
	if d.Reasons["migration/"+ReasonUpThreshold] != 1 {
		t.Fatalf("reasons = %v", d.Reasons)
	}
	if d.FreqTransitions["0"]["1300"] != 1 {
		t.Fatalf("freq transitions = %v", d.FreqTransitions)
	}
	if d.Counters["n"] != 1 || d.Gauges["g"] != 2 || d.Histograms["h"].Count != 1 {
		t.Fatalf("registries = %v %v %v", d.Counters, d.Gauges, d.Histograms)
	}
	if len(d.Events) != 2 {
		t.Fatalf("%d events in dump", len(d.Events))
	}
}

func TestSummaryMentionsKindsAndRates(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Emit(migAt(event.Time(i)*event.Millisecond, ReasonUpThreshold))
	}
	c.Histogram("frame_time_ms").Observe(16.7)
	s := c.Summary(event.Second)
	for _, want := range []string{"migration", ReasonUpThreshold, "migration rate", "frame_time_ms", "p95"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary missing %q:\n%s", want, s)
		}
	}
}
