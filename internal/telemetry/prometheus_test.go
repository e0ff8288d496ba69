package telemetry

import (
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: KindMigration, Reason: ReasonUpThreshold})
	c.Emit(Event{Kind: KindMigration, Reason: ReasonUpThreshold})
	c.Emit(Event{Kind: KindFreq, Cluster: 1, MHz: 1400})
	c.Counter("frames rendered").Add(60)
	c.Gauge("temp_c").Set(41.5)
	h := c.Histogram("latency_ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		`biglittle_events_total{kind="migration"} 2`,
		`biglittle_event_reasons_total{kind="migration",reason="up-threshold"} 2`,
		`biglittle_freq_transitions_total{cluster="1",mhz="1400"} 1`,
		"# TYPE biglittle_frames_rendered_total counter",
		"biglittle_frames_rendered_total 60",
		"biglittle_temp_c 41.5",
		"# TYPE biglittle_latency_ms summary",
		`biglittle_latency_ms{quantile="0.5"} 51`, // nearest-rank on 1..100
		`biglittle_latency_ms{quantile="0.99"} 99`,
		"biglittle_latency_ms_sum 5050",
		"biglittle_latency_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Every non-comment line must be "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var c *Collector
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil collector: err=%v len=%d", err, b.Len())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"latency_ms":      "latency_ms",
		"frames rendered": "frames_rendered",
		"9lives":          "_lives",
		"a.b-c":           "a_b_c",
	} {
		if got := string(appendPromName(nil, in)); got != want {
			t.Errorf("appendPromName(%q) = %q, want %q", in, got, want)
		}
	}
}
