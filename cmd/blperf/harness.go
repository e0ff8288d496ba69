package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// plan says how long to measure one workload.
type plan struct {
	passes  int     // at least this many measured passes
	seconds float64 // and keep starting passes until this much time has passed
	setups  int     // set-up-only children, whose set-up times give setup_s
	trace   bool    // finish with one traced pass for the per-layer metrics
	outDir  string  // where the traced pass's trace and profile are kept ("" = discard)
}

// setupChildren is how many set-up-only children each measurement starts:
// set-up takes milliseconds and is noisy, so its median needs many samples.
const setupChildren = 40

// passRun is one child pass as the parent saw it: the child's own report
// plus what the parent measured from outside.
type passRun struct {
	passResult
	WallS     float64 // exec -> exit
	CPUS      float64 // user + system time of the child
	PeakRSSMB float64
	dir       string
	err       error // the child failed to run or report
}

// ok reports whether the pass ran, reported, and found nothing wrong itself.
func (r passRun) ok() bool { return r.err == nil && len(r.Problems) == 0 }

// childArgs selects what one child pass does.
type childArgs struct {
	workload  string
	seed      int64
	smoke     bool
	cache     string
	setupOnly bool
	trace     bool
}

// harness starts child passes from one executable under one scratch root.
type harness struct {
	exe  string
	root string
}

// runPass starts one child, waits for it, and collects its result and
// rusage. The child's own output goes to stderr, keeping stdout for the
// benchmark's report.
func (h *harness) runPass(a childArgs) passRun {
	var run passRun
	dir, err := os.MkdirTemp(h.root, a.workload+"-")
	if err != nil {
		run.err = err
		return run
	}
	run.dir = dir
	args := []string{"child", "-workload", a.workload, "-seed", strconv.FormatInt(a.seed, 10), "-dir", dir}
	if a.smoke {
		args = append(args, "-smoke")
	}
	if a.cache != "" {
		args = append(args, "-cache", a.cache)
	}
	if a.setupOnly {
		args = append(args, "-setup-only")
	}
	if a.trace {
		args = append(args, "-trace")
	}
	start := time.Now()
	cmd := exec.Command(h.exe, append(args, "-exec-ns", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	err = cmd.Run()
	run.WallS = time.Since(start).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		run.PeakRSSMB = maxRSSMB(ru.Maxrss)
	}
	if err != nil {
		run.err = fmt.Errorf("%s pass: %w", a.workload, err)
		return run
	}
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err == nil {
		err = json.Unmarshal(data, &run.passResult)
	}
	if err != nil {
		run.err = fmt.Errorf("%s pass result: %w", a.workload, err)
	}
	return run
}

// maxRSSMB converts rusage's peak RSS to MB: Linux reports kilobytes,
// macOS bytes.
func maxRSSMB(maxrss int64) float64 {
	if runtime.GOOS == "darwin" {
		return float64(maxrss) / 1e6
	}
	return float64(maxrss) * 1024 / 1e6
}

// workloadResult is one workload's measurement.
type workloadResult struct {
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]series  `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// measure runs one workload: any preparation, a discarded warm-up pass,
// the measured passes, extra set-up samples, the output checks, and
// optionally a traced pass. Children run one at a time.
func measure(exe string, w workload, seed int64, smoke bool, pl plan) (*workloadResult, error) {
	root, err := os.MkdirTemp("", "blperf-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	h := &harness{exe: exe, root: root}
	base := childArgs{workload: w.name, seed: seed, smoke: smoke}
	chk := &checker{}

	// References every pass must reproduce.
	exp := expectedFor(seed, smoke)
	var refDigest string
	var refs map[string]string
	if w.reference != nil {
		if refDigest, refs, err = w.reference(seed, smoke); err != nil {
			return nil, fmt.Errorf("%s reference: %w", w.name, err)
		}
	}
	if w.name == "explore" && exp != nil {
		refs = exp.Explore
	}
	if d := exp.digest(w.name); d != "" {
		chk.want("expected.json", d, &refDigest)
	}

	if w.name == "report-warm" {
		// The preparation pass: a cold report filling the shared cache.
		base.cache = filepath.Join(root, "cache")
		prep := h.runPass(childArgs{workload: "report-cold", seed: seed, smoke: smoke, cache: base.cache})
		if !prep.ok() {
			return nil, fmt.Errorf("report-warm preparation: %v %v", prep.err, prep.Problems)
		}
		chk.want("the cold render", prep.Digest, &refDigest)
		os.RemoveAll(prep.dir)
	}

	warm := h.runPass(base)
	os.RemoveAll(warm.dir)
	if !warm.ok() {
		chk.problemf("warm-up pass failed: %v %v", warm.err, warm.Problems)
	} else {
		// Without an independent reference, passes must agree with the
		// warm-up pass.
		if refDigest == "" {
			refDigest = warm.Digest
		}
		if refs == nil {
			refs = warm.Refs
		}
	}

	var runs []passRun
	start := time.Now()
	for len(runs) < max(pl.passes, 1) || time.Since(start).Seconds() < pl.seconds {
		if n := len(runs); n > 0 {
			// Only the last pass's directory is kept: report-cold re-renders
			// over its cache below.
			os.RemoveAll(runs[n-1].dir)
		}
		runs = append(runs, h.runPass(base))
	}
	// setup_s comes from set-up-only children alone, started once the
	// passes' cache writes are on disk: while the kernel writes them back, a
	// child's cache open took up to four times as long.
	syscall.Sync()
	var setups []float64
	for i := 0; i < pl.setups; i++ {
		r := h.runPass(childArgs{workload: w.name, seed: seed, smoke: smoke, cache: base.cache, setupOnly: true})
		os.RemoveAll(r.dir)
		if r.err == nil {
			setups = append(setups, r.SetupS)
		}
	}

	res := &workloadResult{Passes: len(runs), Metrics: map[string]series{}}
	for i := range runs {
		chk.pass(&runs[i], refDigest, refs)
	}
	if w.name == "report-cold" {
		// The cold render must equal a warm re-render over the same cache,
		// which must simulate nothing (the report-warm child checks that).
		last := runs[len(runs)-1]
		rw := h.runPass(childArgs{workload: "report-warm", seed: seed, smoke: smoke, cache: filepath.Join(last.dir, "cache")})
		if !rw.ok() || rw.Digest != last.Digest {
			chk.problemf("warm re-render over a cold pass's cache differs or failed: %v %v", rw.err, rw.Problems)
		}
	}

	for _, r := range runs {
		res.Attempted += max(r.Ops, 1)
		if r.ok() {
			res.Failed += r.Failed
		} else {
			res.Failed += max(r.Ops, 1)
		}
	}
	perPass := map[string]func(passRun) float64{
		"wall_s":      func(r passRun) float64 { return r.WallS },
		"cpu_s":       func(r passRun) float64 { return r.CPUS },
		"alloc_mb":    func(r passRun) float64 { return r.AllocMB },
		"allocs_m":    func(r passRun) float64 { return r.AllocsM },
		"peak_rss_mb": func(r passRun) float64 { return r.PeakRSSMB },
		"op_p50_ms":   func(r passRun) float64 { return r.OpP50Ms },
		"op_p99_ms":   func(r passRun) float64 { return r.OpP99Ms },
		"disk_mb":     func(r passRun) float64 { return r.DiskMB },
		"fail_frac": func(r passRun) float64 {
			if !r.ok() {
				return 1
			}
			return ratio(float64(r.Failed), float64(r.Ops))
		},
	}
	for _, m := range allPassMetrics {
		v := setups // setup_s
		if get := perPass[m.Name]; get != nil {
			v = make([]float64, len(runs))
			for i, r := range runs {
				v[i] = get(r)
			}
		}
		res.Metrics[m.Name] = newSeries(m.Unit, v)
	}

	if pl.trace {
		traced := base
		traced.trace = true
		tp := h.runPass(traced)
		chk.pass(&tp, refDigest, refs)
		res.Layers = map[string]float64{}
		for _, m := range layerMetrics {
			res.Layers[m.Name] = tp.Layers[m.Name]
		}
		var work []float64
		for _, r := range runs {
			work = append(work, r.WorkS)
		}
		res.Layers["trace_overhead_pct"] = 100 * (ratio(tp.WorkS, median(work)) - 1)
		for _, m := range passMetrics {
			res.Layers[m.Name] = res.Metrics[m.Name].Median
		}
		if pl.outDir != "" {
			for from, to := range map[string]string{"trace.json": ".trace.json", "cpu.pprof": ".cpu.pprof"} {
				if err := copyFile(filepath.Join(tp.dir, from), filepath.Join(pl.outDir, w.name+to)); err != nil {
					chk.problemf("keep traced pass output: %v", err)
				}
			}
		}
	}

	res.Problems = chk.problems
	res.Correct = len(chk.problems) == 0 && res.Failed == 0
	return res, nil
}

// checker collects the output checks of one workload's passes.
type checker struct{ problems []string }

func (c *checker) problemf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// want records that the reference digest must equal got (named by source),
// adopting got as the reference when none is set yet.
func (c *checker) want(source, got string, ref *string) {
	if *ref == "" {
		*ref = got
	} else if *ref != got {
		c.problemf("output digest %.12s from %s differs from the reference %.12s", got, source, *ref)
	}
}

// pass checks one pass against the references and marks it failed (through
// its Problems) if anything differs.
func (c *checker) pass(r *passRun, refDigest string, refs map[string]string) {
	if r.err == nil && refDigest != "" && r.Digest != refDigest {
		r.Problems = append(r.Problems, fmt.Sprintf("output digest %.12s, want %.12s", r.Digest, refDigest))
	}
	for k, want := range refs {
		if r.err == nil && r.Refs[k] != want {
			r.Problems = append(r.Problems, fmt.Sprintf("%s: %s, want %s", k, short(r.Refs[k]), short(want)))
		}
	}
	if !r.ok() {
		c.problemf("pass failed: %v %v", r.err, r.Problems)
	}
}

func short(s string) string {
	if len(s) == 64 { // a hex digest
		return s[:12]
	}
	return s
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

//go:embed expected.json
var expectedJSON []byte

// expectations are the seed-1 outputs of a full-size run, written by
// `blperf expect`: each workload's output digest and each explore app's
// answer (explorePick). ExhaustiveWinner records, per explore app, the
// winner of an exhaustive full-fidelity sweep of the same space — how close
// successive halving gets, for the README; nothing checks it.
type expectations struct {
	Seed             int64             `json:"seed"`
	Digests          map[string]string `json:"digests"`
	Explore          map[string]string `json:"explore"`
	ExhaustiveWinner map[string]int    `json:"exhaustive_winner"`
}

// expectedFor returns the committed expectations when they apply: a
// full-size run at their seed.
func expectedFor(seed int64, smoke bool) *expectations {
	var e expectations
	if smoke || json.Unmarshal(expectedJSON, &e) != nil || e.Seed != seed {
		return nil
	}
	return &e
}

func (e *expectations) digest(w string) string {
	if e == nil {
		return ""
	}
	return e.Digests[w]
}
