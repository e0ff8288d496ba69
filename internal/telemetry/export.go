package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// WriteCSV streams the buffered events as CSV, one row per event, with a
// header row. Columns: at_ms, kind, task, task_name, from_core, core,
// cluster, prev_mhz, mhz, reason, value.
func (c *Collector) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ms", "kind", "task", "task_name",
		"from_core", "core", "cluster", "prev_mhz", "mhz", "reason", "value"}); err != nil {
		return err
	}
	for _, ev := range c.Events() {
		rec := []string{
			strconv.FormatFloat(ev.At.Milliseconds(), 'f', 3, 64),
			ev.Kind.String(),
			strconv.Itoa(ev.Task),
			ev.TaskName,
			strconv.Itoa(ev.FromCore),
			strconv.Itoa(ev.Core),
			strconv.Itoa(ev.Cluster),
			strconv.Itoa(ev.PrevMHz),
			strconv.Itoa(ev.MHz),
			ev.Reason,
			strconv.FormatFloat(ev.Value, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// HistogramStats is a Histogram's JSON summary.
type HistogramStats struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Stats summarizes the histogram for export.
func (h *Histogram) Stats() HistogramStats {
	return HistogramStats{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// Dump is the JSON export document.
type Dump struct {
	// Counts maps kind name to its exact event count.
	Counts map[string]int64 `json:"counts"`
	// Reasons maps "kind/reason" to its exact count.
	Reasons map[string]int64 `json:"reasons,omitempty"`
	// FreqTransitions maps cluster id (as a string, for JSON) to target-MHz
	// transition counts.
	FreqTransitions map[string]map[string]int64 `json:"freq_transitions,omitempty"`
	// Histograms maps registered histogram name to its stats.
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	// Counters and Gauges are the registered named metrics.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Dropped is how many events fell out of the bounded buffer.
	Dropped int `json:"dropped,omitempty"`
	// Events is the buffered event log (may be truncated; see Dropped).
	Events []Event `json:"events"`
}

// JSON marshals the full collector state — exact aggregates plus the
// buffered event log — as an indented JSON document.
func (c *Collector) JSON() ([]byte, error) {
	d := Dump{
		Counts:  map[string]int64{},
		Reasons: map[string]int64{},
		Events:  c.Events(),
	}
	if c != nil {
		for _, k := range Kinds() {
			if n := c.Count(k); n > 0 {
				d.Counts[k.String()] = n
			}
		}
		for rk, n := range c.reasons {
			d.Reasons[rk.Kind.String()+"/"+rk.Reason] = n
		}
		if ft := c.FreqTransitions(); len(ft) > 0 {
			d.FreqTransitions = map[string]map[string]int64{}
			for ci, per := range ft {
				m := map[string]int64{}
				for mhz, n := range per {
					m[strconv.Itoa(mhz)] = n
				}
				d.FreqTransitions[strconv.Itoa(ci)] = m
			}
		}
		c.regMu.RLock()
		if len(c.hists) > 0 {
			d.Histograms = map[string]HistogramStats{}
			var names []string
			for name := range c.hists {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if h := c.hists[name]; h.Count() > 0 {
					d.Histograms[name] = h.Stats()
				}
			}
		}
		for name, ctr := range c.counters {
			if d.Counters == nil {
				d.Counters = map[string]int64{}
			}
			d.Counters[name] = ctr.Value()
		}
		for name, g := range c.gauges {
			if d.Gauges == nil {
				d.Gauges = map[string]float64{}
			}
			d.Gauges[name] = g.Value()
		}
		c.regMu.RUnlock()
		d.Dropped = c.Dropped()
	}
	return json.MarshalIndent(d, "", "  ")
}
