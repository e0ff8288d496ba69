package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"biglittle"
)

// pass is one run of a workload inside a child process of blperf. The
// parent starts it, times it from outside, and reads back its passResult.
type pass struct {
	workload  string
	seed      int64
	smoke     bool
	dir       string // scratch directory the pass owns
	cache     string // pre-filled result cache to use; "" = a fresh one under dir
	setupOnly bool   // assemble the workload, record set-up time, and stop
	traced    bool
	execNs    int64 // wall clock (Unix ns) at which the parent started the child

	tr       *tracer // nil unless traced
	prof     *os.File
	mem0     runtime.MemStats
	runStart time.Time
	runS     float64 // assembled -> finished, host seconds
	res      passResult
}

// passResult is what a child reports to the parent.
type passResult struct {
	SetupS  float64 `json:"setup_s"` // exec -> workload assembled
	WorkS   float64 `json:"work_s"`  // exec -> workload finished
	AllocMB float64 `json:"alloc_mb"`
	AllocsM float64 `json:"allocs_m"`
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	OpP50Ms float64 `json:"op_p50_ms"`
	OpP99Ms float64 `json:"op_p99_ms"`
	DiskMB  float64 `json:"disk_mb"`
	// Digest fingerprints the workload's output; equal seeds must give equal
	// digests. Refs carries finer-grained fingerprints the parent checks
	// against references of its own (per-app fork results, explore picks).
	Digest   string             `json:"digest"`
	Refs     map[string]string  `json:"refs,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
}

func (p *pass) problemf(format string, args ...any) {
	p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
}

// layer records a per-layer metric; a value that is not a number (a median
// of nothing) is recorded as 0.
func (p *pass) layer(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if p.res.Layers == nil {
		p.res.Layers = map[string]float64{}
	}
	p.res.Layers[name] = v
}

// assembled marks the end of set-up. It returns false for a set-up-only
// pass, which then stops; a traced pass starts its CPU profile here, so the
// profile covers the workload and nothing else.
func (p *pass) assembled() bool {
	p.res.SetupS = float64(time.Now().UnixNano()-p.execNs) / 1e9
	if p.setupOnly {
		return false
	}
	if p.traced {
		f, err := os.Create(filepath.Join(p.dir, "cpu.pprof"))
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			p.problemf("cpu profile: %v", err)
		} else {
			p.prof = f
		}
	}
	p.runStart = time.Now()
	return true
}

// finish marks the end of the measured work: everything after it (output
// checks, probes, teardown of the trace) is outside the work time and the
// allocation counts.
func (p *pass) finish() {
	p.runS = time.Since(p.runStart).Seconds()
	p.res.WorkS = float64(time.Now().UnixNano()-p.execNs) / 1e9
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.res.AllocMB = float64(m.TotalAlloc-p.mem0.TotalAlloc) / 1e6
	p.res.AllocsM = float64(m.Mallocs-p.mem0.Mallocs) / 1e6
	p.stopProfile()
}

// stopProfile ends a running CPU profile; finish calls it, and so does a
// workload that failed before finishing.
func (p *pass) stopProfile() {
	if p.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.prof.Close(); err != nil {
		p.problemf("cpu profile: %v", err)
	}
	p.prof = nil
}

// opLatencies records the median and 99th percentile of per-op latencies.
func (p *pass) opLatencies(latMs []float64) {
	p.res.OpP50Ms = percentile(latMs, 50)
	p.res.OpP99Ms = percentile(latMs, 99)
}

// labLayers records a runner's counters as per-layer metrics. simS is the
// simulated time the runner executed.
func (p *pass) labLayers(s biglittle.LabStats, simS float64) {
	p.layer("lab.jobs", float64(s.Jobs))
	p.layer("lab.hits", float64(s.Hits))
	p.layer("lab.simulated", float64(s.Simulated))
	p.layer("lab.hit_ratio", ratio(float64(s.Hits), float64(s.Jobs)))
	p.layer("lab.prefix_hits", float64(s.PrefixHits))
	p.layer("lab.prefix_misses", float64(s.PrefixMisses))
	p.layer("lab.prefix_reuse_ratio", ratio(float64(s.PrefixHits), float64(s.PrefixHits+s.PrefixMisses)))
	p.layer("lab.retries", float64(s.Retries))
	p.layer("lab.sim_s", simS)
	p.layer("lab.sim_rate", ratio(simS, p.runS))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addStats sums runner counters across the runners a workload used.
func addStats(all ...biglittle.LabStats) biglittle.LabStats {
	var t biglittle.LabStats
	for _, s := range all {
		t.Jobs += s.Jobs
		t.Hits += s.Hits
		t.Simulated += s.Simulated
		t.Retries += s.Retries
		t.Failures += s.Failures
		t.PrefixHits += s.PrefixHits
		t.PrefixMisses += s.PrefixMisses
	}
	return t
}

// simMeter is a lab executor that executes nothing: a runner offers it every
// fingerprintable job it is about to simulate, and it adds up the simulated
// time the job covers and declines, so the job runs locally exactly as
// before. Traced passes attach one to measure lab.sim_s for workloads whose
// jobs the simulator's drivers build internally.
type simMeter struct{ ns atomic.Int64 }

func (m *simMeter) Execute(job biglittle.LabJob) (biglittle.Result, bool, error) {
	d := job.Config.Normalized().Duration
	if job.Fork != nil {
		d -= job.Fork.At
	}
	m.ns.Add(int64(d))
	return biglittle.Result{}, false, nil
}

// meter attaches a simMeter to r in traced passes; it returns nil otherwise.
func (p *pass) meter(r *biglittle.LabRunner) *simMeter {
	if !p.traced {
		return nil
	}
	m := &simMeter{}
	r.Remote = m
	return m
}

func (m *simMeter) seconds() float64 {
	if m == nil {
		return 0
	}
	return float64(m.ns.Load()) / 1e9
}

// digestJSON fingerprints v's JSON encoding.
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(data), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// dirMB is the size of every regular file under dir, in MB.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}

// openCache opens the pass's result cache: the shared one it was given, or
// a fresh one named name under its scratch directory.
func (p *pass) openCache(name string) (*biglittle.LabCache, string, error) {
	dir := p.cache
	if dir == "" {
		dir = filepath.Join(p.dir, name)
	}
	c, err := biglittle.OpenLabCache(dir)
	return c, dir, err
}

// childMain runs one pass: `blperf child -workload W -seed N -dir D ...`.
// It always writes D/result.json; a workload error becomes a problem the
// parent counts as a failed pass.
func childMain(args []string) int {
	p := &pass{}
	runtime.ReadMemStats(&p.mem0)
	fset := flag.NewFlagSet("child", flag.ContinueOnError)
	fset.StringVar(&p.workload, "workload", "", "workload name")
	fset.Int64Var(&p.seed, "seed", 1, "input seed")
	fset.BoolVar(&p.smoke, "smoke", false, "reduced sizes")
	fset.StringVar(&p.dir, "dir", "", "scratch directory")
	fset.StringVar(&p.cache, "cache", "", "pre-filled result cache")
	fset.BoolVar(&p.setupOnly, "setup-only", false, "stop once assembled")
	fset.BoolVar(&p.traced, "trace", false, "record spans and a CPU profile")
	fset.Int64Var(&p.execNs, "exec-ns", 0, "Unix ns at which the parent started this process")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(p.workload)
	if !ok || p.dir == "" {
		fmt.Fprintf(os.Stderr, "blperf child: unknown workload %q or no -dir\n", p.workload)
		return 2
	}
	if p.traced {
		p.tr = newTracer()
	}
	if err := w.run(p); err != nil {
		p.problemf("%s: %v", w.name, err)
	}
	p.stopProfile()
	if p.traced && !p.setupOnly {
		p.traceLayers()
	}
	data, err := json.Marshal(p.res)
	if err == nil {
		err = os.WriteFile(filepath.Join(p.dir, "result.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blperf child:", err)
		return 1
	}
	return 0
}

// traceLayers finishes a traced pass: it folds the CPU profile by layer,
// runs the kernel probe, and writes the spans.
func (p *pass) traceLayers() {
	f, err := os.Open(filepath.Join(p.dir, "cpu.pprof"))
	if err == nil {
		var pct map[string]float64
		pct, _, err = foldProfile(f)
		f.Close()
		for b, v := range pct {
			p.layer("self_pct."+b, v)
		}
	}
	if err != nil {
		p.problemf("fold cpu profile: %v", err)
	}
	kernel, err := coreProbe(p.seed, p.smoke)
	if err != nil {
		p.problemf("%v", err)
	}
	for k, v := range kernel {
		p.layer(k, v)
	}
	if err := p.tr.writeChrome(filepath.Join(p.dir, "trace.json")); err != nil {
		p.problemf("write trace: %v", err)
	}
}
