package telemetry

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
)

// appendPromName appends name sanitized into a Prometheus metric name
// component: [a-zA-Z0-9_], everything else collapsed to '_'.
func appendPromName(b []byte, name string) []byte {
	start := len(b)
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b = append(b, byte(r))
		} else {
			b = append(b, '_')
		}
	}
	if len(b) == start {
		b = append(b, '_')
	}
	return b
}

// promLabel escapes a Prometheus label value.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// appendMetric appends "biglittle_" + the sanitized name + suffix.
func appendMetric(b []byte, name, suffix string) []byte {
	b = appendPromName(append(b, "biglittle_"...), name)
	return append(b, suffix...)
}

// promSize bounds the length of the exposition, so that WritePrometheus
// renders it into a buffer allocated once. A sanitized name is no longer
// than its registry name plus one byte. The caller holds regMu.
func (c *Collector) promSize() int {
	n := 1024 + int(numKinds)*64 + len(c.freq)*128
	for rk := range c.reasons {
		n += 96 + 2*len(rk.Reason)
	}
	for name := range c.counters {
		n += 2*len(name) + 80
	}
	for name := range c.gauges {
		n += 2*len(name) + 80
	}
	for name := range c.hists {
		n += 7*len(name) + 330
	}
	return n
}

// WritePrometheus renders the collector's aggregates and metrics registry in
// the Prometheus text exposition format (version 0.0.4):
//
//   - biglittle_events_total{kind} and biglittle_event_reasons_total{kind,reason}
//   - biglittle_freq_transitions_total{cluster,mhz}
//   - biglittle_events_dropped_total (ring-buffer evictions; aggregates exact)
//   - each registered Counter as biglittle_<name>_total
//   - each registered Gauge as biglittle_<name>
//   - each registered Histogram as a summary: biglittle_<name>{quantile=...}
//     at 0.5/0.9/0.95/0.99 (exact nearest-rank, not estimates — the
//     collector keeps every observation) plus _sum and _count.
//
// Safe on a nil collector (writes nothing). blserve serves this on /metrics
// and `blmetrics -prom` writes it to a file. The registry section (named
// counters, gauges, histograms) is safe to export while parallel lab
// workers update counters and gauges; the event aggregates assume the
// single-threaded engine has quiesced or is serialized by the caller.
//
// A scrape allocates the same few objects however many series it covers:
// the text is appended into one buffer, and the keys of each section are
// sorted in one slice.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	c.regMu.RLock()
	b := make([]byte, 0, c.promSize())

	b = append(b, "# HELP biglittle_events_total Telemetry events emitted, by kind.\n"...)
	b = append(b, "# TYPE biglittle_events_total counter\n"...)
	for k := Kind(0); k < numKinds; k++ {
		b = append(b, "biglittle_events_total{kind="...)
		b = strconv.AppendQuote(b, k.String())
		b = append(b, "} "...)
		b = strconv.AppendInt(b, c.counts[k], 10)
		b = append(b, '\n')
	}

	if len(c.reasons) > 0 {
		b = append(b, "# HELP biglittle_event_reasons_total Telemetry events by kind and reason.\n"...)
		b = append(b, "# TYPE biglittle_event_reasons_total counter\n"...)
		keys := make([]reasonKey, 0, len(c.reasons))
		for rk := range c.reasons {
			keys = append(keys, rk)
		}
		slices.SortFunc(keys, func(a, b reasonKey) int {
			return cmp.Or(cmp.Compare(a.Kind, b.Kind), strings.Compare(a.Reason, b.Reason))
		})
		for _, rk := range keys {
			b = append(b, "biglittle_event_reasons_total{kind="...)
			b = strconv.AppendQuote(b, rk.Kind.String())
			b = append(b, ",reason="...)
			b = strconv.AppendQuote(b, promLabel(rk.Reason))
			b = append(b, "} "...)
			b = strconv.AppendInt(b, c.reasons[rk], 10)
			b = append(b, '\n')
		}
	}

	if len(c.freq) > 0 {
		b = append(b, "# HELP biglittle_freq_transitions_total Cluster frequency transitions, by target MHz.\n"...)
		b = append(b, "# TYPE biglittle_freq_transitions_total counter\n"...)
		keys := make([]freqKey, 0, len(c.freq))
		for fk := range c.freq {
			keys = append(keys, fk)
		}
		slices.SortFunc(keys, func(a, b freqKey) int {
			return cmp.Or(cmp.Compare(a.Cluster, b.Cluster), cmp.Compare(a.MHz, b.MHz))
		})
		for _, fk := range keys {
			b = append(b, `biglittle_freq_transitions_total{cluster="`...)
			b = strconv.AppendInt(b, int64(fk.Cluster), 10)
			b = append(b, `",mhz="`...)
			b = strconv.AppendInt(b, int64(fk.MHz), 10)
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, c.freq[fk], 10)
			b = append(b, '\n')
		}
	}

	b = append(b, "# HELP biglittle_events_dropped_total Events evicted from the bounded buffer (aggregates stay exact).\n"...)
	b = append(b, "# TYPE biglittle_events_dropped_total counter\n"...)
	b = append(b, "biglittle_events_dropped_total "...)
	b = strconv.AppendInt(b, int64(c.Dropped()), 10)
	b = append(b, '\n')

	names := make([]string, 0, max(len(c.counters), len(c.gauges), len(c.hists)))
	for name := range c.counters {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		b = appendMetric(append(b, "# TYPE "...), name, "_total counter\n")
		b = appendMetric(b, name, "_total ")
		b = strconv.AppendInt(b, c.counters[name].Value(), 10)
		b = append(b, '\n')
	}

	names = names[:0]
	for name, g := range c.gauges {
		if g.Defined() {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		b = appendMetric(append(b, "# TYPE "...), name, " gauge\n")
		b = appendMetric(b, name, " ")
		b = strconv.AppendFloat(b, c.gauges[name].Value(), 'g', -1, 64)
		b = append(b, '\n')
	}

	names = names[:0]
	for name := range c.hists {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h := c.hists[name]
		b = appendMetric(append(b, "# TYPE "...), name, " summary\n")
		for _, q := range [...]float64{0.5, 0.9, 0.95, 0.99} {
			b = strconv.AppendFloat(appendMetric(b, name, `{quantile="`), q, 'g', -1, 64)
			b = strconv.AppendFloat(append(b, `"} `...), h.Quantile(q), 'g', -1, 64)
			b = append(b, '\n')
		}
		b = appendMetric(b, name, "_sum ")
		b = strconv.AppendFloat(b, h.sum, 'g', -1, 64)
		b = appendMetric(append(b, '\n'), name, "_count ")
		b = strconv.AppendInt(b, int64(h.Count()), 10)
		b = append(b, '\n')
	}
	c.regMu.RUnlock()

	_, err := w.Write(b)
	return err
}
