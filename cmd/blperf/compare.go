package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts compare prints for each (metric, workload).
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges new against base for one metric. A move beyond the bound
// is better or worse; a smaller one is unchanged. When either side's
// pass-to-pass IQR is wider than the bound the medians cannot be told apart
// and the verdict is unresolved — unless every new pass beats every base
// pass. A zero bound (fail_frac) makes any rise in the mean worse.
func verdict(m metricDef, base, next series) string {
	if m.Bound == 0 {
		a, b := sum(base.Values)/float64(max(base.N, 1)), sum(next.Values)/float64(max(next.N, 1))
		switch {
		case b > a:
			return worse
		case b < a:
			return better
		}
		return unchanged
	}
	if base.Median == 0 {
		if next.Median == 0 {
			return unchanged
		}
		return worse
	}
	change := (next.Median - base.Median) / math.Abs(base.Median)
	if m.Better == "higher" {
		change = -change
	}
	if max(base.spread(), next.spread()) > m.Bound {
		if allBetter(m, base, next) {
			return better
		}
		return unresolved
	}
	switch {
	case change > m.Bound:
		return worse
	case change < -m.Bound:
		return better
	}
	return unchanged
}

// allBetter reports whether every value of next beats every value of base.
func allBetter(m metricDef, base, next series) bool {
	if base.N == 0 || next.N == 0 {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range base.Values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range next.Values {
		if (m.Better == "higher" && v <= hi) || (m.Better != "higher" && v >= lo) {
			return false
		}
	}
	return true
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints a verdict for every per-pass (metric, workload) pair
// two runs of the same seed and scale share, and exits 1 if a gated metric
// is worse. Host-dependent metrics are compared only when both runs had the
// same CPU model and core count.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		usage()
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		return fail(err)
	}
	next, err := readResults(args[1])
	if err != nil {
		return fail(err)
	}
	if base.Host.Seed != next.Host.Seed || base.Host.Scale != next.Host.Scale {
		fmt.Fprintf(os.Stderr, "blperf compare: the runs used different inputs (seed %d %s vs seed %d %s)\n",
			base.Host.Seed, base.Host.Scale, next.Host.Seed, next.Host.Scale)
		return 2
	}
	sameHost := base.Host.CPUModel == next.Host.CPUModel && base.Host.NProc == next.Host.NProc
	if !sameHost {
		fmt.Fprintf(w, "hosts differ (%q x%d vs %q x%d): times and memory footprint are not compared\n",
			base.Host.CPUModel, base.Host.NProc, next.Host.CPUModel, next.Host.NProc)
	}
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s  %s\n", "workload", "metric", "base (IQR)", "new (IQR)", "change", "verdict")
	nWorse := 0
	for _, wl := range workloads {
		a, b := base.Workloads[wl.name], next.Workloads[wl.name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range allPassMetrics {
			sa, okA := a.Metrics[m.Name]
			sb, okB := b.Metrics[m.Name]
			if !okA || !okB || (sa.Median == 0 && sb.Median == 0 && m.Bound > 0) {
				continue
			}
			v := verdict(m, sa, sb)
			switch {
			case m.Host && !sameHost:
				v = "not compared"
			case v == worse && m.Gate:
				nWorse++
			case !m.Gate:
				v += " (advisory)"
			}
			change := 0.0
			if sa.Median != 0 {
				change = 100 * (sb.Median - sa.Median) / math.Abs(sa.Median)
			}
			fmt.Fprintf(w, "%-14s %-12s %8.4g (%.2g) %8.4g (%.2g) %+8.1f%%  %s\n",
				wl.name, m.Name, sa.Median, sa.IQR, sb.Median, sb.IQR, change, v)
		}
	}
	if nWorse > 0 {
		fmt.Fprintf(w, "%d regressions in gated metrics\n", nWorse)
		return 1
	}
	return 0
}
