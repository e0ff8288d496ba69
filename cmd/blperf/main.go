// Command blperf is the repository's benchmark: six user workloads timed end
// to end, each pass in a fresh child process, with output checks on every
// pass and a traced pass that splits the time by layer.
//
// Usage:
//
//	blperf run -seed 1 -out DIR            all six workloads; writes DIR/results.json
//	blperf bench -workload NAME -seed N -seconds S -trace 0|1
//	                                       one workload for S seconds; last stdout line is JSON
//	blperf compare A/results.json B/results.json
//	blperf expect -seed 1 -out expected.json
//
// See README.md for the workloads, the metrics and how to claim a gain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "child":
		os.Exit(childMain(args))
	case "run":
		os.Exit(runMain(args))
	case "bench":
		os.Exit(benchMain(args))
	case "compare":
		os.Exit(compareMain(args, os.Stdout))
	case "expect":
		os.Exit(expectMain(args))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  blperf run [-seed N] -out DIR [-scale full|smoke] [-workloads a,b]
  blperf bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
  blperf compare BASE/results.json NEW/results.json
  blperf expect [-seed 1] [-out expected.json]`)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "blperf:", err)
	return 1
}

// results is what results.json holds: the host facts and each workload's
// measurement.
type results struct {
	Host      hostFacts                  `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// hostFacts say where and how a results.json was measured; compare reads
// the CPU model and core count before holding timings against each other.
type hostFacts struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Seed       int64          `json:"seed"`
	Scale      string         `json:"scale"`
	Revision   string         `json:"git_revision"`
	Passes     map[string]int `json:"passes"`
}

func newHostFacts(seed int64, smoke bool) hostFacts {
	scale := "full"
	if smoke {
		scale = "smoke"
	}
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Scale:      scale,
		Revision:   revision(),
		Passes:     map[string]int{},
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, falling back to the
// architecture where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// revision is the source revision being measured: the one stamped into the
// binary, else git's view of the working tree, else "unknown" (a checkout
// without history).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func writeResults(dir string, r *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}

// printWorkload writes a workload's metrics, one per line with its unit.
func printWorkload(w io.Writer, name string, r *workloadResult, layers bool) {
	fmt.Fprintf(w, "%s: %d passes, correct=%v, %d ops attempted, %d failed\n",
		name, r.Passes, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, m := range allPassMetrics {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "  %-22s %12.4f %-5s IQR %.4f  n=%d\n", m.Name, s.Median, m.Unit, s.IQR, s.N)
	}
	if !layers {
		return
	}
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
	}
}

// runMain measures every workload (or those named) with its full pass count
// plus a traced pass, printing each metric and writing DIR/results.json and
// the traced passes' DIR/<workload>.trace.json and .cpu.pprof.
func runMain(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed for every generated config")
	out := fs.String("out", "", "output directory (required)")
	scale := fs.String("scale", "full", "full, or smoke for one pass of reduced sizes")
	only := fs.String("workloads", "", "comma-separated workloads to run (default all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" || (*scale != "full" && *scale != "smoke") {
		usage()
		return 2
	}
	smoke := *scale == "smoke"
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	res := &results{Host: newHostFacts(*seed, smoke), Workloads: map[string]*workloadResult{}}
	allOK := true
	for _, w := range workloads {
		if *only != "" && !contains(strings.Split(*only, ","), w.name) {
			continue
		}
		pl := plan{passes: w.passes, setups: setupChildren, trace: true, outDir: *out}
		if smoke {
			pl.passes, pl.setups = 1, 1
		}
		wr, err := measure(exe, w, *seed, smoke, pl)
		if err != nil {
			return fail(err)
		}
		res.Workloads[w.name] = wr
		res.Host.Passes[w.name] = wr.Passes
		allOK = allOK && wr.Correct
		printWorkload(os.Stdout, w.name, wr, true)
	}
	if err := writeResults(*out, res); err != nil {
		return fail(err)
	}
	if !allOK {
		fmt.Fprintln(os.Stderr, "blperf: some workloads failed their output checks")
		return 1
	}
	return 0
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if strings.TrimSpace(x) == s {
			return true
		}
	}
	return false
}

// benchMain measures one workload for a fixed time and prints, as its last
// line, the JSON object BENCHMARK.json's command reports: correctness, ops
// attempted and failed, and the end-to-end metrics (trace 0) or the
// per-layer metrics (trace 1).
func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to measure")
	seed := fs.Int64("seed", 1, "input seed for every generated config")
	seconds := fs.Int("seconds", 10, "how long to keep starting measured passes")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of a traced pass")
	out := fs.String("out", "", "directory for results.json and the traced pass's files (default: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "blperf bench: unknown workload %q or bad -trace\n", *name)
		usage()
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
	}
	pl := plan{passes: 1, seconds: float64(*seconds), setups: setupChildren, trace: *trace == 1, outDir: *out}
	wr, err := measure(exe, w, *seed, false, pl)
	if err != nil {
		return fail(err)
	}
	printWorkload(os.Stdout, w.name, wr, *trace == 1)
	if *out != "" {
		res := &results{Host: newHostFacts(*seed, false), Workloads: map[string]*workloadResult{w.name: wr}}
		res.Host.Passes[w.name] = wr.Passes
		if err := writeResults(*out, res); err != nil {
			return fail(err)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if *trace == 1 {
		for _, m := range layerMetrics {
			metrics[m.Name] = value{wr.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{wr.Metrics[m.Name].Median, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}
