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
	"context"
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
	// Config — whose knobs take effect at the fork point. The jobs of one
	// batch with an identical (Base, At) share a single prefix, held in
	// memory until the batch returns; the cache's prefix tier keeps it for
	// later batches and processes. Fork jobs never ship to the remote fleet
	// (snapshots mirror process-local closure state) and are mutually
	// exclusive with Runner.Check.
	Fork *ForkSpec
}

// ForkSpec names the shared prefix of a fork-accelerated job: the base
// config to warm — typically the sweep's config with the swept knob at its
// baseline value — and the fork time. Base must be fingerprintable (no
// observers, hooks, digest recorder or session phases), or the job fails
// loudly.
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
	// (built earlier in this batch, or found in the cache's prefix tier);
	// PrefixMisses counts prefix simulations actually executed — on a sweep
	// of N variants sharing one (Base, At), PrefixMisses is 1 and PrefixHits
	// is N-1.
	Forks        int64
	PrefixHits   int64
	PrefixMisses int64

	// MemoHits counts derived results (Memo) read back from the cache;
	// MemoMisses counts those computed because the cache held no valid
	// entry. Neither moves without a cache, and neither counts as a job.
	MemoHits   int64
	MemoMisses int64
}

// Runner executes jobs on a worker pool with caching. The zero value is
// usable: GOMAXPROCS workers, no cache.
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
}

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

// count applies fn to the stats under the runner's lock.
func (r *Runner) count(fn func(*Stats)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(&r.stats)
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
//
// Fork jobs whose specs name the same (Base, At) share one prefix, warmed
// at most once; the batch's prefixes are dropped when RunAll returns.
func (r *Runner) RunAll(jobs []Job) ([]core.Result, error) {
	results := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	prog := r.newProgress(len(jobs))
	slots := prefixSlots(jobs)
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
		var slot *prefixSlot
		if slots != nil {
			slot = slots[i]
		}
		results[i], errs[i] = r.runOne(jobs[i], fp, slot)
		prog.step()
	})
	for i, fp := range fps {
		j := first[fp]
		if fp == "" || j == i {
			continue
		}
		results[i], errs[i] = results[j], errs[j]
		if errs[i] != nil {
			r.count(func(s *Stats) { s.Jobs++; s.Failures++ })
			r.logJob("job failed", jobs[i].Config.App.Name, slog.Any("err", errs[i]), slog.Int("duplicate_of", j))
		} else {
			r.count(func(s *Stats) { s.Jobs++; s.Hits++ })
			r.logJob("batch duplicate", jobs[i].Config.App.Name, slog.String("fingerprint", fp), slog.Int("duplicate_of", j))
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
		"remote", s.Remote,
		"stored", s.Stored,
		"retries", s.Retries,
		"failures", s.Failures,
		"audited", s.Audited,
		"audit_failures", s.AuditFailures,
	)
}

// logJob emits one per-job Debug transition when a logger is attached. Its
// fields are slog.Attrs, which box nothing, so without a logger the call
// costs no allocation.
func (r *Runner) logJob(msg, app string, attrs ...slog.Attr) {
	if r.Log == nil {
		return
	}
	r.Log.LogAttrs(context.Background(), slog.LevelDebug, msg, append([]slog.Attr{slog.String("app", app)}, attrs...)...)
}

// logAt is a log field for the simulated time t, printed as a duration.
func logAt(t event.Time) slog.Attr { return slog.Duration("at", time.Duration(t)) }

// Run executes a single job (still counted, cached, and recovered). A fork
// job warms a prefix of its own.
func (r *Runner) Run(job Job) (core.Result, error) {
	var fp string
	if r.Cache != nil || r.Remote != nil {
		fp, _ = Fingerprint(job)
	}
	var slot *prefixSlot
	if job.Fork != nil {
		slot = newPrefixSlot(job.Fork)
	}
	return r.runOne(job, fp, slot)
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
// neither a cache nor a remote executor to use it with, so a runner with
// neither never encodes or hashes a config. slot is a fork job's prefix.
func (r *Runner) runOne(job Job, fp string, slot *prefixSlot) (core.Result, error) {
	r.count(func(s *Stats) { s.Jobs++ })

	cfg := job.Config
	if job.Fork != nil && r.Check {
		// The auditor must observe a from-scratch run, but a variant fork's
		// result legitimately differs from a from-scratch run of the variant
		// config (its knobs apply only from the fork point), so auditing
		// would flag correct results as corrupt.
		err := fmt.Errorf("lab: job %q: fork acceleration and Check auditing are mutually exclusive — an audit re-simulates from scratch, which a variant fork legitimately diverges from", cfg.App.Name)
		r.count(func(s *Stats) { s.Failures++ })
		r.logJob("job failed", cfg.App.Name, slog.Any("err", err))
		return core.Result{}, err
	}
	printable := fp != ""
	cacheable := printable && r.Cache != nil
	if cacheable {
		if res, ok := r.Cache.Get(fp); ok {
			if aerr := r.auditServed(cfg, res, "cache"); aerr != nil {
				return core.Result{}, aerr
			}
			r.count(func(s *Stats) { s.Hits++ })
			r.logJob("cache hit", cfg.App.Name, slog.String("fingerprint", fp))
			return res, nil
		}
		r.count(func(s *Stats) { s.Misses++ })
		r.logJob("cache miss", cfg.App.Name, slog.String("fingerprint", fp))
	}

	// Remote execution: ship fingerprintable jobs to the fleet. The executor
	// declines jobs it cannot reconstruct remotely, and any remote failure
	// falls through to local simulation — the fleet is an accelerator, not a
	// dependency.
	if printable && r.Remote != nil {
		res, ok, rerr := r.Remote.Execute(job)
		switch {
		case rerr != nil:
			r.count(func(s *Stats) { s.RemoteErrors++ })
			r.logJob("remote error", cfg.App.Name, slog.Any("err", rerr))
		case ok:
			if aerr := r.auditServed(cfg, res, "remote"); aerr != nil {
				return core.Result{}, aerr
			}
			r.count(func(s *Stats) { s.Remote++ })
			r.logJob("remote", cfg.App.Name, slog.String("fingerprint", fp))
			if cacheable {
				r.store(fp, job, res)
			}
			return res, nil
		}
	}

	// A fork-accelerated job simulates its continuation from the shared
	// prefix snapshot instead of from time zero. The prefix is acquired once
	// (once per slot across workers) before the attempt loop, so a retry
	// re-runs only the cheap continuation.
	run := runScratch
	if job.Fork != nil {
		st, ferr := r.prefixState(slot)
		if ferr != nil {
			r.count(func(s *Stats) { s.Failures++ })
			r.logJob("job failed", cfg.App.Name, slog.Any("err", ferr))
			return core.Result{}, ferr
		}
		run = forkRun(st)
	}

	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.count(func(s *Stats) { s.Retries++ })
			r.logJob("retry", cfg.App.Name, slog.Int("attempt", attempt), slog.Any("err", err))
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
				r.count(func(s *Stats) { s.AuditFailures++ })
				r.logJob("audit failure", cfg.App.Name, slog.Any("err", aerr))
				return core.Result{}, fmt.Errorf("lab: job %q failed audit: %w", cfg.App.Name, aerr)
			}
			r.count(func(s *Stats) { s.Audited++ })
			r.logJob("audited", cfg.App.Name, slog.String("source", "fresh"))
		}
		if job.Fork != nil {
			r.count(func(s *Stats) { s.Forks++ })
			r.logJob("forked", cfg.App.Name, logAt(job.Fork.At))
		}
		r.count(func(s *Stats) { s.Simulated++ })
		r.logJob("simulated", cfg.App.Name, slog.Int("attempt", attempt+1))
		if cacheable {
			r.store(fp, job, res)
		}
		return res, nil
	}
	r.count(func(s *Stats) { s.Failures++ })
	r.logJob("job failed", cfg.App.Name, slog.Any("err", err))
	return core.Result{}, err
}

// store writes a result to the cache and counts and logs the write. A write
// that fails is best effort: the result still serves this run.
func (r *Runner) store(fp string, job Job, res core.Result) {
	if err := r.Cache.Put(fp, job.Config.App.Name, job.Salt, res); err == nil {
		r.count(func(s *Stats) { s.Stored++ })
		r.logJob("stored", job.Config.App.Name, slog.String("fingerprint", fp))
	}
}

// auditServed audits a result the runner did not simulate, a cache hit or a
// remote result, when Check is on, and counts and logs the outcome; source
// names where the result came from.
func (r *Runner) auditServed(cfg core.Config, res core.Result, source string) error {
	if !r.Check {
		return nil
	}
	if err := auditCached(cfg, res); err != nil {
		r.count(func(s *Stats) { s.AuditFailures++ })
		r.logJob("audit failure", cfg.App.Name, slog.Any("err", err))
		return err
	}
	r.count(func(s *Stats) { s.Audited++ })
	r.logJob("audited", cfg.App.Name, slog.String("source", source))
	return nil
}

// auditCached re-simulates a served result with an auditor attached and
// requires it to equal the fresh one byte for byte (Go float64 JSON
// round-trips exactly, so marshaling both is an exact comparison). This is
// the defense against a silently wrong number being memoized and re-served
// forever: any divergence between the served result and today's simulator
// — violation, drift, or corruption — surfaces as an error.
func auditCached(cfg core.Config, cached core.Result) error {
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
