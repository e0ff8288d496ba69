package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"biglittle"
)

// TestMain lets the test binary stand in for blperf as the child process of
// a measured pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestReportMatchesBlreport pins the in-process report driver to the real
// command: the same sections, in the same order, to the byte.
func TestReportMatchesBlreport(t *testing.T) {
	cmd := exec.Command("go", "run", "./cmd/blreport", "-quick", "-no-cache")
	cmd.Dir = filepath.Join("..", "..")
	cmd.Stderr = os.Stderr
	want, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./cmd/blreport: %v", err)
	}
	var got bytes.Buffer
	renderReport(&got, biglittle.ExperimentOptions{
		Duration:     8 * biglittle.Second,
		Instructions: 120_000,
		Seed:         1,
		Runner:       &biglittle.LabRunner{},
	}, nil, 0)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report driver output (%d bytes) differs from blreport -quick (%d bytes)", got.Len(), len(want))
	}
}

// TestSmokeWorkloads runs every workload at reduced size — one measured
// pass, one set-up sample, and a traced pass — and requires its output
// checks to pass and its traced pass to leave a trace, a profile, and a
// layer fold that sums to 100%.
func TestSmokeWorkloads(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(exe, w, 7, true, plan{passes: 1, setups: 1, trace: true, outDir: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name].Median; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			total := 0.0
			for _, b := range foldBuckets {
				total += res.Layers["self_pct."+b]
			}
			if total != 0 && math.Abs(total-100) > 1 {
				t.Errorf("self_pct sums to %.2f, want 100 ± 1", total)
			}
			for _, ext := range []string{".trace.json", ".cpu.pprof"} {
				if _, err := os.Stat(filepath.Join(out, w.name+ext)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"biglittle/internal/sched.(*System).onTick":     "sched",
		"biglittle/internal/event.(*Engine).Run":        "event",
		"biglittle/internal/lab.(*Runner).RunAll.func1": "lab",
		"biglittle/internal/battery.Pack.DrainPct":      "other",
		"biglittle.Run":                                      "other",
		"runtime.mallocgc":                                   "gc",
		"runtime.gcBgMarkWorker":                             "gc",
		"runtime.scanobject":                                 "gc",
		"runtime.futex":                                      "runtime_other",
		"runtime.netpoll":                                    "net",
		"encoding/json.(*decodeState).object":                "json",
		"crypto/sha256.block":                                "crypto",
		"net/http.(*conn).serve":                             "net",
		"syscall.Syscall6":                                   "syscall",
		"internal/runtime/syscall.Syscall6":                  "syscall",
		"internal/runtime/maps.(*Map).getWithKeySmall":       "runtime_other",
		"sort.Slice":                                         "other",
		"biglittle/internal/event.(*heap[go.shape.int]).pop": "event",
		"slices.SortFunc[go.shape.[]biglittle/internal/x.T]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// spin burns CPU in this package, so a profile of it folds into "other".
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFoldProfile folds a real CPU profile written by runtime/pprof.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	pct, n, err := foldProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no CPU samples collected")
	}
	total := 0.0
	for _, v := range pct {
		total += v
	}
	if math.Abs(total-100) > 1e-9 || len(pct) != len(foldBuckets) {
		t.Fatalf("fold sums to %v over %d buckets, want 100 over %d", total, len(pct), len(foldBuckets))
	}
	if pct["other"] < 50 {
		t.Fatalf("spin loop folded %.1f%% into other, want most of it: %v", pct["other"], pct)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0.5, 9, 2, 7, 4.5}, 1.25, 8},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for p, want := range map[float64]float64{0: 0, 50: 50, 99: 99, 100: 100, 99.5: 99.5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input should give NaN")
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	tight := func(m float64) series { return newSeries("s", []float64{m * 0.99, m, m * 1.01}) }
	for _, c := range []struct {
		name       string
		m          metricDef
		base, next series
		want       string
	}{
		{"within bound", wall, tight(1), tight(1.05), unchanged},
		{"slower", wall, tight(1), tight(1.2), worse},
		{"faster", wall, tight(1), tight(0.8), better},
		{"noisy base", wall, newSeries("s", []float64{0.7, 1, 1.3}), tight(1.2), unresolved},
		{"noisy but every pass faster", wall, newSeries("s", []float64{0.9, 1, 1.3}), tight(0.5), better},
		{"higher is better", metricDef{Better: "higher", Bound: 0.1}, tight(1), tight(0.8), worse},
		{"fail_frac rises", metricDef{Name: "fail_frac", Bound: 0}, newSeries("ratio", []float64{0, 0}), newSeries("ratio", []float64{0, 0.001}), worse},
		{"fail_frac flat", metricDef{Name: "fail_frac", Bound: 0}, newSeries("ratio", []float64{0}), newSeries("ratio", []float64{0, 0}), unchanged},
		{"zero stays zero", wall, newSeries("MB", []float64{0}), newSeries("MB", []float64{0}), unchanged},
	} {
		if got := verdict(c.m, c.base, c.next); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, metric string, v float64) string {
		r := &results{Host: hostFacts{CPUModel: "cpu", NProc: 2, Seed: seed}, Workloads: map[string]*workloadResult{
			"report-cold": {Metrics: map[string]series{metric: newSeries("", []float64{v, v, v})}},
		}}
		sub := filepath.Join(dir, name)
		if err := writeResults(sub, r); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(sub, "results.json")
	}
	for _, c := range []struct {
		name       string
		base, next string
		code       int
		says       string
	}{
		{"allocations flat", write("a1", 1, "alloc_mb", 100), write("a2", 1, "alloc_mb", 101), 0, unchanged},
		{"allocations up", write("a3", 1, "alloc_mb", 100), write("a4", 1, "alloc_mb", 110), 1, worse},
		{"wall time is advisory", write("w1", 1, "wall_s", 1), write("w2", 1, "wall_s", 2), 0, "worse (advisory)"},
		{"different seeds", write("s1", 1, "alloc_mb", 100), write("s7", 7, "alloc_mb", 100), 2, ""},
	} {
		var out bytes.Buffer
		if code := compareMain([]string{c.base, c.next}, &out); code != c.code || !bytes.Contains(out.Bytes(), []byte(c.says)) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", c.name, code, c.code, c.says, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	want := []time.Duration{50, 25, 30, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json next to this module:", err)
	}
	type named struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := got
	want.Workloads, want.EndToEnd, want.PerLayer = nil, nil, nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, named{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		want.EndToEnd = append(want.EndToEnd, named{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range layerMetrics {
		want.PerLayer = append(want.PerLayer, named{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(got, want) {
		wantJSON, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json is out of step with blperf; want:\n%s", wantJSON)
	}
}
