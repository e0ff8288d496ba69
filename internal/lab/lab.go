// Package lab is the experiment orchestrator: it turns every simulation
// into a declarative Job, fans jobs out over a bounded worker pool, and
// memoizes completed results in a content-addressed on-disk cache so warm
// re-runs skip simulation entirely. The same cache memoizes derived results
// (Memo), the values drivers compute outside core.Run.
//
// Three properties make it safe to put under every paper-reproduction
// driver:
//
//   - Determinism: RunAll returns results in job-submission order no matter
//     which worker finished first, and the simulator itself is a
//     single-threaded deterministic event engine — so report output is
//     byte-identical for 1 worker or N, cold cache or warm.
//   - Isolation: each job runs a fresh, isolated engine. Observers whose
//     event streams are not goroutine-safe (telemetry.Collector's event
//     bus, trace.Recorder) must be per-job: give each job's Config its own.
//   - Robustness: a panicking job is recovered and retried once, and a
//     corrupt cache blob falls back to re-simulation. The simulator is
//     deterministic, so a job that hangs would hang again on any retry; a
//     fleet worker that dies mid-job is covered by its lease expiring.
package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/telemetry"
)

// Job is one declarative experiment: a fully resolved simulation config
// plus optional orchestration hooks. Per-job observers (a fresh
// telemetry.Collector, a trace.Recorder via OnSystem, ...) go on Config;
// jobs whose config carries observers are never cached.
type Job struct {
	Config core.Config

	// Salt is extra fingerprint material for call sites where the config
	// alone under-identifies the run — e.g. composite apps whose background
	// set is hidden inside App.Build.
	Salt string

	// Fork, when non-nil, accelerates the job with a shared snapshot prefix:
	// instead of simulating Config from scratch, the runner warms (or
	// reuses) one prefix of Fork.Base run to Fork.At and resumes it under
	// Config — whose knobs take effect at the fork point. Jobs with an
	// identical (Base, At) share a single prefix simulation, in memory and
	// in the cache's prefix tier. Fork jobs never ship to the remote fleet
	// (snapshots mirror process-local closure state) and are mutually
	// exclusive with Runner.Check.
	Fork *ForkSpec
}

// ForkSpec names the shared prefix of a fork-accelerated job: the base
// config to warm — typically the sweep's config with the swept knob at its
// baseline value — and the fork time. Base must be fingerprintable (no
// observers, hooks, or digest recorder), or the job fails loudly.
type ForkSpec struct {
	Base core.Config
	At   event.Time
}

// Executor runs a job somewhere other than this process — the simulation
// fleet, typically (internal/fleet.Client implements it). Execute reports
// ok=false when the job cannot be shipped out (it carries hooks or observers
// that do not serialize, or an app/platform the remote side cannot rebuild
// by name); the runner then simulates locally. A non-nil error means the
// remote attempt itself failed (coordinator unreachable, job failed on every
// worker); the runner logs it and falls back to local simulation, so a dead
// fleet degrades to in-process execution, never to a lost result.
type Executor interface {
	Execute(job Job) (res core.Result, ok bool, err error)
}

// Stats counts what a runner did. Hits+Remote+Simulated = completed jobs
// (when nothing failed); on a fully warm cache Simulated is zero.
type Stats struct {
	Jobs      int64 // jobs submitted
	Hits      int64 // results served from cache, or shared within a batch (RunAll)
	Misses    int64 // cache lookups that missed (cacheable jobs only)
	Simulated int64 // simulations actually executed
	Stored    int64 // results written to cache
	Retries   int64 // extra attempts after a panic
	Failures  int64 // jobs that exhausted their attempts

	// Remote counts jobs executed by the remote fleet (Runner.Remote);
	// RemoteErrors counts remote attempts that failed and fell back to
	// local simulation.
	Remote       int64
	RemoteErrors int64

	// Audited counts jobs that passed invariant auditing (Runner.Check);
	// AuditFailures counts jobs whose audit reported violations or whose
	// cached result disagreed with a fresh audited simulation.
	Audited       int64
	AuditFailures int64

	// Forks counts fork-accelerated continuations resumed from a prefix
	// snapshot. PrefixHits counts fork jobs served by an already-warm prefix
	// (built earlier in this process, or found in the cache's prefix tier);
	// PrefixMisses counts prefix simulations actually executed — on a sweep
	// of N variants sharing one (Base, At), PrefixMisses is 1 and PrefixHits
	// is N-1. PrefixEvictions counts decoded prefixes dropped from the
	// in-process tier to stay under DefaultPrefixBudget; an evicted prefix
	// re-requested later is rebuilt (or reloaded from the disk tier) and
	// counted again.
	Forks           int64
	PrefixHits      int64
	PrefixMisses    int64
	PrefixEvictions int64

	// MemoHits counts derived results (Memo) read back from the cache;
	// MemoMisses counts those computed because the cache held no valid
	// entry. Neither moves without a cache, and neither counts as a job.
	MemoHits   int64
	MemoMisses int64
}

// Runner executes jobs on a worker pool with caching. The zero value is
// usable: GOMAXPROCS workers, no cache, no telemetry.
type Runner struct {
	// Workers caps concurrent simulations (<=0: GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes results by content fingerprint.
	Cache *Cache
	// Remote, when non-nil, executes fingerprintable jobs on a remote fleet
	// after the local cache misses. Jobs the executor cannot ship (Execute
	// ok=false) and failed remote attempts simulate locally, so attaching a
	// Remote never changes results — only where they are computed. Remote
	// results are stored into the local cache like fresh simulations.
	Remote Executor
	// Tel, when non-nil, receives progress and cache hit/miss counters —
	// one per Stats field: "lab_jobs", "lab_cache_hits", "lab_cache_misses",
	// "lab_simulations", "lab_stored", "lab_retries", "lab_failures",
	// "lab_remote", "lab_remote_errors", "lab_audited",
	// "lab_audit_failures", "lab_forks", "lab_prefix_hits",
	// "lab_prefix_misses", "lab_prefix_evictions", "lab_memo_hits",
	// "lab_memo_misses". The runner updates them under its
	// own mutex so Stats and the mirrored counters stay in lockstep; the
	// registry itself is goroutine-safe, so exporting this collector (e.g.
	// WritePrometheus) while a sweep runs is fine. Do not share it with
	// concurrently running jobs' event emission — the event bus is still
	// single-threaded.
	Tel *telemetry.Collector
	// Log, when non-nil, receives structured sweep observability: per-job
	// state transitions (cache hit/miss, simulated, stored, retry, failure,
	// audit) at Debug, and sweep-level progress — completed/total, jobs/sec,
	// ETA — at Info. Nil stays silent; the logger must be goroutine-safe
	// (slog's built-in handlers are).
	Log *slog.Logger
	// Check enables invariant auditing (internal/check) for every job: fresh
	// simulations run with an auditor attached and fail on any violation, and
	// cache hits are verified by re-simulating with an auditor and requiring
	// the cached result to match the fresh one byte for byte. Auditing is a
	// pure observation — results are identical with it on or off — but cache
	// hits lose their speedup since each one re-simulates.
	Check bool

	mu    sync.Mutex
	stats Stats

	// prefixBudget overrides DefaultPrefixBudget for the fork tests: 0
	// means the default, negative means unlimited.
	prefixBudget int64

	// prefixes is the in-process tier of the fork-prefix cache: one decoded
	// read-only snapshot per (base fingerprint, fork time), built at most
	// once per runner under singleflight. The on-disk tier lives in the
	// Cache's prefix/ area and survives across processes. prefixKeys
	// memoizes the fingerprint-derived key per spec pointer, so a sweep
	// sharing one *ForkSpec marshals the base config once. prefixLRU orders
	// the tracked keys least-recently-handed-out first and prefixBytes sums
	// their estimated sizes, for byte-budget eviction.
	prefixMu    sync.Mutex
	prefixes    map[string]*prefixEntry
	prefixKeys  map[*ForkSpec]string
	prefixLRU   []string
	prefixBytes int64
}

// DefaultPrefixBudget bounds the bytes of decoded prefix snapshots the
// in-process fork tier keeps alive at once (estimated via
// snapshot.State.ApproxBytes): enough for tens of typical decoded
// snapshots, small enough that a hundred-app fork matrix cannot hold every
// prefix alive at once. Least recently handed-out prefixes are evicted
// first (Stats.PrefixEvictions); the entry just handed out is never
// evicted, so a single oversized prefix still serves its sweep.
const DefaultPrefixBudget int64 = 1 << 30

// retries is how many extra attempts a panicking job gets.
const retries = 1

// New returns a runner with the given worker count and cache.
func New(workers int, cache *Cache) *Runner {
	return &Runner{Workers: workers, Cache: cache}
}

var defaultRunner = sync.OnceValue(func() *Runner { return &Runner{} })

// Default returns the shared process-wide runner: GOMAXPROCS workers, no
// cache. It is what analysis drivers use when no runner is configured.
func Default() *Runner { return defaultRunner() }

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// count applies fn to the stats and mirrors named counters into the
// attached telemetry registry, all under one lock (the Collector is not
// goroutine-safe).
func (r *Runner) count(fn func(*Stats), counters ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.stats)
	for _, name := range counters {
		r.Tel.Counter(name).Inc()
	}
}

// countAdd is count for increments larger than one: it applies fn to the
// stats and adds n to the single mirrored counter, under the same lock.
func (r *Runner) countAdd(fn func(*Stats), counter string, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.stats)
	r.Tel.Counter(counter).Add(n)
}

// RunAll executes every job and returns the results in submission order.
// The first error (by submission order) is returned after all jobs finish;
// its result slot is the zero Result. Configs are values: the caller's jobs
// are never mutated.
//
// With a Cache or a Remote attached, RunAll fingerprints every job before
// the fan-out and runs each distinct fingerprint once: a later job with the
// same fingerprint takes the first one's result and error, and counts as a
// cache hit, or as a failure when the first one failed. Such jobs share
// their Result's slices, so the results are read-only.
func (r *Runner) RunAll(jobs []Job) ([]core.Result, error) {
	results := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	prog := r.newProgress(len(jobs))
	// fps[i] is job i's fingerprint ("" when it has none), and first maps
	// each fingerprint to the first job carrying it. Both stay nil when the
	// runner has no use for fingerprints.
	var fps []string
	var first map[string]int
	if r.Cache != nil || r.Remote != nil {
		fps = make([]string, len(jobs))
		first = make(map[string]int, len(jobs))
		for i := range jobs {
			fp, _ := Fingerprint(jobs[i])
			fps[i] = fp
			if _, seen := first[fp]; fp != "" && !seen {
				first[fp] = i
			}
		}
	}
	r.ForEach(len(jobs), func(i int) {
		var fp string
		if fps != nil {
			if fp = fps[i]; fp != "" && first[fp] != i {
				return // a duplicate: filled in below
			}
		}
		results[i], errs[i] = r.runOne(jobs[i], fp)
		prog.step()
	})
	for i, fp := range fps {
		j := first[fp]
		if fp == "" || j == i {
			continue
		}
		results[i], errs[i] = results[j], errs[j]
		if errs[i] != nil {
			r.count(func(s *Stats) { s.Jobs++; s.Failures++ }, "lab_jobs", "lab_failures")
			r.logJob("job failed", jobs[i].Config.App.Name, "err", errs[i], "duplicate_of", j)
		} else {
			r.count(func(s *Stats) { s.Jobs++; s.Hits++ }, "lab_jobs", "lab_cache_hits")
			r.logJob("batch duplicate", jobs[i].Config.App.Name, "fingerprint", fp, "duplicate_of", j)
		}
		prog.step()
	}
	prog.finish()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// progress tracks sweep completion for the structured log. A nil *progress
// (no logger attached) is valid and does nothing.
type progress struct {
	r         *Runner
	total     int
	every     int64 // log an Info line every this many completions
	start     time.Time
	completed atomic.Int64
}

func (r *Runner) newProgress(total int) *progress {
	if r.Log == nil || total <= 0 {
		return nil
	}
	every := int64(total / 10)
	if every < 1 {
		every = 1
	}
	r.Log.Info("sweep start", "jobs", total, "workers", r.workers(total))
	return &progress{r: r, total: total, every: every, start: time.Now()}
}

// step records one finished job and, every `every` completions, logs
// completed/total, throughput, and the ETA extrapolated from the rate so
// far. Called from worker goroutines.
func (p *progress) step() {
	if p == nil {
		return
	}
	n := p.completed.Add(1)
	if n%p.every != 0 && int(n) != p.total {
		return
	}
	elapsed := time.Since(p.start)
	rate := float64(n) / elapsed.Seconds()
	eta := time.Duration(0)
	if rate > 0 {
		eta = time.Duration(float64(p.total-int(n)) / rate * float64(time.Second))
	}
	args := []any{
		"completed", n,
		"total", p.total,
		"jobs_per_sec", math.Round(rate*10) / 10,
		"eta", eta.Round(10 * time.Millisecond).String(),
	}
	// Prefix-tier effectiveness, when the sweep forks: how many
	// continuations have resumed from a warmed prefix, and what share of
	// prefix requests were served without simulating one.
	if s := p.r.Stats(); s.Forks > 0 || s.PrefixMisses > 0 {
		hitPct := 0.0
		if reqs := s.PrefixHits + s.PrefixMisses; reqs > 0 {
			hitPct = 100 * float64(s.PrefixHits) / float64(reqs)
		}
		args = append(args,
			"forks", s.Forks,
			"prefix_hit_pct", math.Round(hitPct*10)/10,
		)
		if s.PrefixEvictions > 0 {
			args = append(args, "prefix_evictions", s.PrefixEvictions)
		}
	}
	p.r.Log.Info("sweep progress", args...)
}

// finish logs the sweep summary with the runner's cumulative tallies.
func (p *progress) finish() {
	if p == nil {
		return
	}
	s := p.r.Stats()
	p.r.Log.Info("sweep complete",
		"jobs", p.completed.Load(),
		"elapsed", time.Since(p.start).Round(time.Millisecond).String(),
		"hits", s.Hits,
		"misses", s.Misses,
		"simulated", s.Simulated,
		"forks", s.Forks,
		"prefix_hits", s.PrefixHits,
		"prefix_evictions", s.PrefixEvictions,
		"remote", s.Remote,
		"stored", s.Stored,
		"retries", s.Retries,
		"failures", s.Failures,
		"audited", s.Audited,
		"audit_failures", s.AuditFailures,
	)
}

// logJob emits one per-job Debug transition when a logger is attached.
func (r *Runner) logJob(msg, app string, args ...any) {
	if r.Log == nil {
		return
	}
	r.Log.Debug(msg, append([]any{"app", app}, args...)...)
}

// Run executes a single job (still counted, cached, and recovered).
func (r *Runner) Run(job Job) (core.Result, error) {
	var fp string
	if r.Cache != nil || r.Remote != nil {
		fp, _ = Fingerprint(job)
	}
	return r.runOne(job, fp)
}

// ForEach runs fn(i) for i in [0, n) on the worker pool, for fan-out work
// that is not a core simulation (microarchitecture sweeps, branch-predictor
// traces). The calling goroutine is one of the workers, and every worker
// runs the same function value over shared state, so what ForEach allocates
// does not depend on the worker count. A panic in fn is re-raised in the
// caller once every worker has drained.
func (r *Runner) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	f := &fanOut{fn: fn, n: int64(n)}
	work := f.work
	workers := r.workers(n)
	f.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	f.wg.Wait()
	if f.panicV != nil {
		panic(f.panicV)
	}
}

// fanOut is the state ForEach's workers share: the next index to claim, and
// the first panic any of them recovered.
type fanOut struct {
	fn     func(i int)
	n      int64
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	panicV any
}

// work claims indices until none remain.
func (f *fanOut) work() {
	defer f.wg.Done()
	for {
		i := f.next.Add(1) - 1
		if i >= f.n {
			return
		}
		f.call(int(i))
	}
}

// call runs fn(i), recording a panic instead of letting it kill the worker.
func (f *fanOut) call(i int) {
	defer func() {
		if p := recover(); p != nil {
			f.mu.Lock()
			if f.panicV == nil {
				f.panicV = p
			}
			f.mu.Unlock()
		}
	}()
	f.fn(i)
}

// runOne resolves one job: cache lookup, then bounded simulation attempts.
// fp is the job's fingerprint, or "" when it has none or the runner has
// neither a cache nor a remote executor to use it with: a fingerprint costs
// a config marshal (two for fork jobs).
func (r *Runner) runOne(job Job, fp string) (core.Result, error) {
	r.count(func(s *Stats) { s.Jobs++ }, "lab_jobs")

	cfg := job.Config
	if job.Fork != nil && r.Check {
		// The auditor must observe a from-scratch run, but a variant fork's
		// result legitimately differs from a from-scratch run of the variant
		// config (its knobs apply only from the fork point), so auditing
		// would flag correct results as corrupt.
		err := fmt.Errorf("lab: job %q: fork acceleration and Check auditing are mutually exclusive — an audit re-simulates from scratch, which a variant fork legitimately diverges from", cfg.App.Name)
		r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
		r.logJob("job failed", cfg.App.Name, "err", err)
		return core.Result{}, err
	}
	printable := fp != ""
	cacheable := printable && r.Cache != nil
	if cacheable {
		if res, ok := r.Cache.Get(fp); ok {
			if r.Check {
				if aerr := r.auditCached(cfg, res); aerr != nil {
					r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
					r.logJob("audit failure", cfg.App.Name, "err", aerr)
					return core.Result{}, aerr
				}
				r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
				r.logJob("audited", cfg.App.Name, "source", "cache")
			}
			r.count(func(s *Stats) { s.Hits++ }, "lab_cache_hits")
			r.logJob("cache hit", cfg.App.Name, "fingerprint", fp)
			return res, nil
		}
		r.count(func(s *Stats) { s.Misses++ }, "lab_cache_misses")
		r.logJob("cache miss", cfg.App.Name, "fingerprint", fp)
	}

	// Remote execution: ship fingerprintable jobs to the fleet. The executor
	// declines jobs it cannot reconstruct remotely, and any remote failure
	// falls through to local simulation — the fleet is an accelerator, not a
	// dependency.
	if printable && r.Remote != nil {
		res, ok, rerr := r.Remote.Execute(job)
		switch {
		case rerr != nil:
			r.count(func(s *Stats) { s.RemoteErrors++ }, "lab_remote_errors")
			r.logJob("remote error", cfg.App.Name, "err", rerr)
		case ok:
			if r.Check {
				// A remote result is audited exactly like a cache hit: re-simulate
				// locally with the auditor attached and require byte equality.
				if aerr := r.auditCached(cfg, res); aerr != nil {
					r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
					r.logJob("audit failure", cfg.App.Name, "err", aerr)
					return core.Result{}, aerr
				}
				r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
				r.logJob("audited", cfg.App.Name, "source", "remote")
			}
			r.count(func(s *Stats) { s.Remote++ }, "lab_remote")
			r.logJob("remote", cfg.App.Name, "fingerprint", fp)
			if cacheable {
				if perr := r.Cache.Put(fp, cfg.App.Name, job.Salt, res); perr == nil {
					r.count(func(s *Stats) { s.Stored++ }, "lab_stored")
					r.logJob("stored", cfg.App.Name, "fingerprint", fp)
				}
			}
			return res, nil
		}
	}

	// A fork-accelerated job simulates its continuation from the shared
	// prefix snapshot instead of from time zero. The prefix is acquired once
	// (singleflight across workers) before the attempt loop, so a retry
	// re-runs only the cheap continuation.
	run := runScratch
	if job.Fork != nil {
		st, ferr := r.prefixState(job.Fork)
		if ferr != nil {
			r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
			r.logJob("job failed", cfg.App.Name, "err", ferr)
			return core.Result{}, ferr
		}
		run = forkRun(st)
	}

	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.count(func(s *Stats) { s.Retries++ }, "lab_retries")
			r.logJob("retry", cfg.App.Name, "attempt", attempt, "err", err)
		}
		// A fresh auditor per attempt: one auditor instance observes one run.
		acfg := cfg
		var aud *check.Auditor
		if r.Check && acfg.Check == nil {
			aud = check.New()
			acfg.Check = aud
		}
		var res core.Result
		res, err = runRecovered(acfg, run)
		if err != nil {
			continue
		}
		if aud != nil {
			if aerr := aud.Err(); aerr != nil {
				// Violations are deterministic, so retrying cannot help.
				r.count(func(s *Stats) { s.AuditFailures++ }, "lab_audit_failures")
				r.logJob("audit failure", cfg.App.Name, "err", aerr)
				return core.Result{}, fmt.Errorf("lab: job %q failed audit: %w", cfg.App.Name, aerr)
			}
			r.count(func(s *Stats) { s.Audited++ }, "lab_audited")
			r.logJob("audited", cfg.App.Name, "source", "fresh")
		}
		if job.Fork != nil {
			r.count(func(s *Stats) { s.Forks++ }, "lab_forks")
			r.logJob("forked", cfg.App.Name, "at", job.Fork.At)
		}
		r.count(func(s *Stats) { s.Simulated++ }, "lab_simulations")
		r.logJob("simulated", cfg.App.Name, "attempt", attempt+1)
		if cacheable {
			if perr := r.Cache.Put(fp, cfg.App.Name, job.Salt, res); perr == nil {
				r.count(func(s *Stats) { s.Stored++ }, "lab_stored")
				r.logJob("stored", cfg.App.Name, "fingerprint", fp)
			}
		}
		return res, nil
	}
	r.count(func(s *Stats) { s.Failures++ }, "lab_failures")
	r.logJob("job failed", cfg.App.Name, "err", err)
	return core.Result{}, err
}

// auditCached re-simulates a cache hit with an auditor attached and requires
// the cached result to equal the fresh one byte for byte (Go float64 JSON
// round-trips exactly, so marshaling both is an exact comparison). This is
// the defense against a silently wrong number being memoized and re-served
// forever: any divergence between the cache blob and today's simulator —
// violation, drift, or corruption — surfaces as an error.
func (r *Runner) auditCached(cfg core.Config, cached core.Result) error {
	aud := check.New()
	cfg.Check = aud
	fresh, err := runRecovered(cfg, runScratch)
	if err != nil {
		return err
	}
	if aerr := aud.Err(); aerr != nil {
		return fmt.Errorf("lab: job %q failed audit: %w", cfg.App.Name, aerr)
	}
	a, aerr := json.Marshal(cached)
	b, berr := json.Marshal(fresh)
	if aerr != nil || berr != nil {
		return fmt.Errorf("lab: job %q: marshal for audit compare: %v / %v", cfg.App.Name, aerr, berr)
	}
	if !bytes.Equal(a, b) {
		// Name exactly what moved rather than reporting an opaque byte
		// mismatch: the structural diff walks both results field by field.
		ds := delta.Diff(cached, fresh, delta.Tolerance{})
		return fmt.Errorf("lab: job %q cached result disagrees with fresh audited simulation; %d field(s) differ (cached -> fresh):\n%s",
			cfg.App.Name, len(ds), delta.Summarize(ds, 8))
	}
	return nil
}

// runScratch is the default attempt body: a full from-scratch simulation.
func runScratch(cfg core.Config) (core.Result, error) { return core.Run(cfg), nil }

// runRecovered runs one simulation attempt — run(cfg) — recovering a panic
// into an error.
func runRecovered(cfg core.Config, run func(core.Config) (core.Result, error)) (res core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = core.Result{}, fmt.Errorf("lab: job %q panicked: %v", cfg.App.Name, p)
		}
	}()
	return run(cfg)
}
