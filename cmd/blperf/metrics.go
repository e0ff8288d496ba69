package main

// metricDef is one metric measured on every pass: its unit, which
// direction is better, and the share of the base median by which it may
// worsen before compare calls a change worse. For an end-to-end metric the
// bound is also the one BENCHMARK.json states.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Host marks metrics that depend on the machine — times and memory
	// footprint. compare holds them only between runs on the same CPU model
	// and core count; allocation, disk and failure metrics compare anywhere.
	Host bool
	// Gate makes a "worse" verdict fail compare. Timings are advisory: on a
	// shared host two runs of the same code can differ by more than any
	// useful bound, so a timing claim needs the paired runs README.md
	// describes.
	Gate bool
}

// endToEnd are the metrics BENCHMARK.json lists as end to end: what a user
// of the simulator pays on every workload, measured with tracing off, one
// value per pass, reported as the median with its IQR and pass count.
// Allocations and peak RSS repeated within a tenth across two full runs of
// the same code; wall and CPU time did not (see passMetrics). setup_s is a
// timing like them, so compare does not fail on it, but it is the set-up
// cost every command pays and gets the widest bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Host: true},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03, Gate: true},
	{Name: "allocs_m", Unit: "M", Better: "lower", Bound: 0.03, Gate: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Host: true, Gate: true},
}

// passMetrics are measured on every pass too but are not end-to-end
// metrics in BENCHMARK.json, which lists them among the per-layer metrics.
// Wall and CPU time moved by up to half between two full runs of the same
// code on a shared 2-vCPU VM. Op latency exists
// only on fleet-sweep and live-session, and disk only on the workloads with a
// fresh cache, while an end-to-end metric must be positive everywhere. Any
// rise in the failure share is a regression.
var passMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, Host: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.10, Host: true},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Host: true},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.10, Host: true},
	{Name: "disk_mb", Unit: "MB", Better: "lower", Bound: 0.02, Gate: true},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0, Gate: true},
}

// allPassMetrics is every metric with one value per pass, in report order.
var allPassMetrics = append(append([]metricDef(nil), endToEnd...), passMetrics...)

// layerDef names one per-layer metric from a workload's traced pass. A
// metric of a layer the workload does not exercise reads 0.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

// higherIsBetter are the per-layer metrics that improve upward: reuse,
// throughput, and work avoided. Every other one is a cost.
var higherIsBetter = map[string]bool{
	"lab.hits": true, "lab.hit_ratio": true, "lab.prefix_hits": true,
	"lab.prefix_reuse_ratio": true, "lab.sim_rate": true, "session.sim_rate": true,
	"explore.x_sim_avoided": true, "fleet.completed": true,
}

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = func() []layerDef {
	var out []layerDef
	for _, b := range foldBuckets {
		out = append(out, layerDef{Name: "self_pct." + b, Unit: "%"})
	}
	out = append(out,
		layerDef{Name: "trace_overhead_pct", Unit: "%"},
		layerDef{Name: "core.ms_per_sim_s", Unit: "ms/s"},
		layerDef{Name: "core.events_per_sim_s", Unit: "1/s"},
		layerDef{Name: "core.ns_per_event", Unit: "ns"},
		layerDef{Name: "core.assemble_us", Unit: "us"},
		layerDef{Name: "core.finish_us", Unit: "us"},
		layerDef{Name: "core.resume_us", Unit: "us"},
		layerDef{Name: "snapshot.capture_ms", Unit: "ms"},
		layerDef{Name: "snapshot.encode_ms", Unit: "ms"},
		layerDef{Name: "snapshot.decode_ms", Unit: "ms"},
		layerDef{Name: "snapshot.blob_kb", Unit: "KB"},
		layerDef{Name: "lab.prefix_load_ms", Unit: "ms"},
		layerDef{Name: "lab.fingerprint_us", Unit: "us"},
		layerDef{Name: "lab.get_us", Unit: "us"},
		layerDef{Name: "lab.put_us", Unit: "us"},
		layerDef{Name: "lab.result_kb", Unit: "KB"},
		layerDef{Name: "lab.jobs", Unit: "count"},
		layerDef{Name: "lab.hits", Unit: "count"},
		layerDef{Name: "lab.simulated", Unit: "count"},
		layerDef{Name: "lab.hit_ratio", Unit: "ratio"},
		layerDef{Name: "lab.prefix_hits", Unit: "count"},
		layerDef{Name: "lab.prefix_misses", Unit: "count"},
		layerDef{Name: "lab.prefix_reuse_ratio", Unit: "ratio"},
		layerDef{Name: "lab.retries", Unit: "count"},
		layerDef{Name: "lab.sim_s", Unit: "s"},
		layerDef{Name: "lab.sim_rate", Unit: "s/s"},
		layerDef{Name: "explore.cold_s", Unit: "s"},
		layerDef{Name: "explore.warm_s", Unit: "s"},
		layerDef{Name: "explore.rungs", Unit: "count"},
		layerDef{Name: "explore.jobs", Unit: "count"},
		layerDef{Name: "explore.x_sim_avoided", Unit: "x"},
		layerDef{Name: "fleet.submit_ms", Unit: "ms"},
		layerDef{Name: "fleet.await_ms", Unit: "ms"},
		layerDef{Name: "fleet.overhead_ms", Unit: "ms"},
		layerDef{Name: "fleet.completed", Unit: "count"},
		layerDef{Name: "fleet.duplicates", Unit: "count"},
		layerDef{Name: "fleet.requeued", Unit: "count"},
		layerDef{Name: "session.phase_first_ms", Unit: "ms"},
		layerDef{Name: "session.phase_last_ms", Unit: "ms"},
		layerDef{Name: "session.phase_growth", Unit: "x"},
		layerDef{Name: "session.tasks_end", Unit: "count"},
		layerDef{Name: "session.sim_rate", Unit: "s/s"},
		layerDef{Name: "observers.overhead_pct", Unit: "%"},
		layerDef{Name: "telemetry.prom_us", Unit: "us"},
		layerDef{Name: "profile.snapshot_us", Unit: "us"},
		layerDef{Name: "xray.spans", Unit: "count"},
		layerDef{Name: "check.violations", Unit: "count"},
		layerDef{Name: "delta.windows", Unit: "count"},
	)
	for _, s := range reportSections {
		out = append(out, layerDef{Name: "analysis." + s.key + "_ms", Unit: "ms"})
	}
	for _, m := range passMetrics {
		out = append(out, layerDef{Name: m.Name, Unit: m.Unit})
	}
	for i := range out {
		out[i].Better = "lower"
		if higherIsBetter[out[i].Name] {
			out[i].Better = "higher"
		}
	}
	return out
}()
