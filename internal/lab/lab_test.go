package lab

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/trace"
	"biglittle/internal/workload"
)

func testApp(t *testing.T) apps.App {
	t.Helper()
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// runConfigs is RunAll over bare configs.
func runConfigs(r *Runner, cfgs []core.Config) ([]core.Result, error) {
	jobs := make([]Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = Job{Config: cfg}
	}
	return r.RunAll(jobs)
}

func testConfig(t *testing.T) core.Config {
	cfg := core.DefaultConfig(testApp(t))
	cfg.Duration = 500 * event.Millisecond
	return cfg
}

func TestFingerprintStable(t *testing.T) {
	cfg := testConfig(t)
	fp1, ok1 := Fingerprint(Job{Config: cfg})
	fp2, ok2 := Fingerprint(Job{Config: cfg})
	if !ok1 || !ok2 {
		t.Fatal("baseline config should be cacheable")
	}
	if fp1 != fp2 {
		t.Fatalf("same config hashed differently: %s vs %s", fp1, fp2)
	}

	// Zero-value fields resolve to the same defaults Run applies, so a
	// sparse config and its fully-resolved twin must share a fingerprint.
	sparse := core.Config{App: cfg.App, Seed: cfg.Seed, Duration: cfg.Duration}
	sparse.Gov = cfg.Gov // Gov default depends on Governor, deliberately not normalized
	fpSparse, ok := Fingerprint(Job{Config: sparse})
	if !ok || fpSparse != fp1 {
		t.Fatalf("normalized sparse config fingerprint = %s, want %s", fpSparse, fp1)
	}

	seeded := cfg
	seeded.Seed = 99
	if fp, _ := Fingerprint(Job{Config: seeded}); fp == fp1 {
		t.Fatal("different seed must change the fingerprint")
	}
	if fp, _ := Fingerprint(Job{Config: cfg, Salt: "variant"}); fp == fp1 {
		t.Fatal("salt must change the fingerprint")
	}
}

func TestFingerprintUncacheable(t *testing.T) {
	base := testConfig(t)

	withTel := base
	withTel.Telemetry = telemetry.NewCollector()
	if _, ok := Fingerprint(Job{Config: withTel}); ok {
		t.Fatal("config with a telemetry collector must not be cacheable")
	}

	withHook := base
	withHook.OnSystem = func(*sched.System) {}
	if _, ok := Fingerprint(Job{Config: withHook}); ok {
		t.Fatal("config with an OnSystem hook must not be cacheable")
	}

	withDigest := base
	withDigest.Digest = &delta.Recorder{}
	if _, ok := Fingerprint(Job{Config: withDigest}); ok {
		t.Fatal("config with a digest recorder must not be cacheable")
	}

	session := base
	session.Phases = []core.Phase{{App: base.App, Duration: base.Duration}}
	if _, ok := Fingerprint(Job{Config: session}); ok {
		t.Fatal("a session's config must not be cacheable")
	}

	named := base
	named.Platform = "snapdragon810"
	if _, ok := Fingerprint(Job{Config: named}); !ok {
		t.Fatal("named platform preset should be cacheable")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	fp, ok := Fingerprint(Job{Config: cfg})
	if !ok {
		t.Fatal("expected cacheable config")
	}
	if _, ok := cache.Get(fp); ok {
		t.Fatal("empty cache should miss")
	}
	want := core.Run(cfg)
	if err := cache.Put(fp, cfg.App.Name, "", want); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(fp)
	if !ok {
		t.Fatal("expected a hit after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached result does not round-trip")
	}

	entries, err := cache.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].App != cfg.App.Name || entries[0].Fingerprint != fp {
		t.Fatalf("List = %+v, want one %s entry", entries, cfg.App.Name)
	}

	if n, err := cache.Invalidate(cfg.App.Name); err != nil || n != 1 {
		t.Fatalf("Invalidate = %d, %v; want 1, nil", n, err)
	}
	if _, ok := cache.Get(fp); ok {
		t.Fatal("invalidated entry should miss")
	}
}

func TestPruneStale(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fake an older code version's entry.
	stale := filepath.Join(dir, "v1-oldrev", "ab")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "abcd.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := cache.PruneStale()
	if err != nil || n != 1 {
		t.Fatalf("PruneStale = %d, %v; want 1, nil", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "v1-oldrev")); !os.IsNotExist(err) {
		t.Fatal("stale version dir should be removed")
	}
	if _, err := os.Stat(filepath.Join(dir, cache.Version())); err != nil {
		t.Fatal("current version dir must survive pruning")
	}
}

func TestWarmRunSkipsSimulation(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.Config{testConfig(t)}
	seeded := testConfig(t)
	seeded.Seed = 7
	cfgs = append(cfgs, seeded)

	cold := New(2, cache)
	coldRes, err := runConfigs(cold, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Simulated != 2 || s.Hits != 0 || s.Stored != 2 {
		t.Fatalf("cold stats = %+v, want 2 simulated, 0 hits, 2 stored", s)
	}

	warm := New(2, cache)
	warmRes, err := runConfigs(warm, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Simulated != 0 || s.Hits != 2 {
		t.Fatalf("warm stats = %+v, want 0 simulated, 2 hits", s)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatal("warm results differ from cold results")
	}
}

func TestCorruptBlobFallsBackToSimulation(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	fp, _ := Fingerprint(Job{Config: cfg})

	cold := New(1, cache)
	want, err := cold.Run(Job{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the blob on disk to garbage.
	p := filepath.Join(cache.Dir(), cache.Version(), fp[:2], fp+".json")
	if err := os.WriteFile(p, []byte(`{"fingerprint":"wrong`), 0o644); err != nil {
		t.Fatal(err)
	}

	warm := New(1, cache)
	got, err := warm.Run(Job{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Simulated != 1 {
		t.Fatalf("corrupt-blob stats = %+v, want miss + re-simulation", s)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-simulated result differs from original")
	}
	// The repaired entry must serve the next run.
	again := New(1, cache)
	if _, err := again.Run(Job{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if s := again.Stats(); s.Hits != 1 {
		t.Fatalf("post-repair stats = %+v, want a hit", s)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var jobs []Job
	for seed := int64(1); seed <= 6; seed++ {
		cfg := testConfig(t)
		cfg.Seed = seed
		jobs = append(jobs, Job{Config: cfg})
	}
	serial := New(1, nil)
	wide := New(8, nil)
	r1, err1 := serial.RunAll(jobs)
	rN, errN := wide.RunAll(jobs)
	if err1 != nil || errN != nil {
		t.Fatal(err1, errN)
	}
	if !reflect.DeepEqual(r1, rN) {
		t.Fatal("results differ between 1 and 8 workers")
	}
}

func TestPanicRecoveryAndRetry(t *testing.T) {
	app := apps.App{Name: "panicky", Desc: "always panics", Build: func(*workload.Ctx) {
		panic("boom")
	}}
	cfg := core.DefaultConfig(app)
	cfg.Duration = 100 * event.Millisecond

	r := New(1, nil)
	_, err := r.Run(Job{Config: cfg})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic error", err)
	}
	s := r.Stats()
	if s.Retries != 1 || s.Failures != 1 {
		t.Fatalf("stats = %+v, want 1 retry and 1 failure", s)
	}
}

// ForEach on any worker count runs every index, re-raises a panic in fn only
// once every worker has drained, and allocates the same number of objects:
// its workers share one state value and one function value.
func TestForEach(t *testing.T) {
	const n = 64
	allocs := map[int]float64{}
	for _, workers := range []int{1, 2, 4} {
		r := New(workers, nil)
		var ran [n]atomic.Bool
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("%d workers: recovered %v, want the panic from fn", workers, p)
				}
			}()
			r.ForEach(n, func(i int) {
				ran[i].Store(true)
				if i == 3 {
					panic("boom")
				}
			})
		}()
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("%d workers: index %d never ran", workers, i)
			}
		}

		out := make([]int, n)
		fill := func(i int) { out[i] = i }
		r.ForEach(n, fill) // let the runtime keep the goroutines it frees
		allocs[workers] = testing.AllocsPerRun(100, func() { r.ForEach(n, fill) })
	}
	if allocs[1] != allocs[2] || allocs[1] != allocs[4] {
		t.Fatalf("ForEach allocs at 1, 2, 4 workers = %v, %v, %v: want equal", allocs[1], allocs[2], allocs[4])
	}
}

// TestUnknownPlatformFailsJob pins that a SoC name outside platform.ByName's
// registry fails its job like any other invalid config: assembly panics and
// the runner reports the panic as the job's error.
func TestUnknownPlatformFailsJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.Platform = "no-such-soc"
	_, err := New(1, nil).Run(Job{Config: cfg})
	if err == nil || !strings.Contains(err.Error(), `unknown SoC "no-such-soc"`) {
		t.Fatalf("err = %v, want the unknown-SoC panic as the job error", err)
	}
}

// TestRaceJobOwnedObservers is the goroutine-safety regression test: under
// -race, many concurrent jobs each carry their own telemetry collector and
// trace recorder on their Config, which must not race because no observer
// is shared across workers.
func TestRaceJobOwnedObservers(t *testing.T) {
	type observed struct {
		tel *telemetry.Collector
		rec *trace.Recorder
	}
	const n = 8
	obs := make([]observed, n)
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		cfg := testConfig(t)
		cfg.Seed = int64(i + 1)
		obs[i].tel = telemetry.NewCollector()
		cfg.Telemetry = obs[i].tel
		cfg.OnSystem = func(sys *sched.System) {
			obs[i].rec = trace.Attach(sys, 0, cfg.Duration)
		}
		jobs[i] = Job{Config: cfg}
	}
	r := New(4, nil)
	if _, err := r.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if o.tel == nil || o.tel.TotalEvents() == 0 {
			t.Fatalf("job %d: expected a populated per-job collector", i)
		}
		if o.rec == nil {
			t.Fatalf("job %d: expected an attached trace recorder", i)
		}
	}
	s := r.Stats()
	if s.Jobs != n || s.Simulated != n {
		t.Fatalf("stats = %+v, want %d jobs all simulated", s, n)
	}
}

func TestAuditMode(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)

	cold := New(1, cache)
	cold.Check = true
	coldRes, err := runConfigs(cold, []core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Simulated != 1 || s.Audited != 1 || s.AuditFailures != 0 || s.Stored != 1 {
		t.Fatalf("cold audit stats = %+v, want 1 simulated, 1 audited, 0 failures, 1 stored", s)
	}

	// A warm audited run re-simulates the hit, verifies it byte for byte
	// against the cache blob, and still serves the cached result.
	warm := New(1, cache)
	warm.Check = true
	warmRes, err := runConfigs(warm, []core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Hits != 1 || s.Audited != 1 || s.AuditFailures != 0 {
		t.Fatalf("warm audit stats = %+v, want 1 hit, 1 audited, 0 failures", s)
	}
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatal("audited warm results differ from cold results")
	}

	// Audited results are identical to unaudited ones (the auditor is a
	// pure observer), so the cache blob is shared with non-Check runners.
	plain := New(1, cache)
	plainRes, err := runConfigs(plain, []core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.Stats(); s.Hits != 1 {
		t.Fatalf("plain stats = %+v, want 1 hit on the audited blob", s)
	}
	if !reflect.DeepEqual(coldRes, plainRes) {
		t.Fatal("unaudited results differ from audited results")
	}
}

func TestAuditCatchesTamperedCache(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	fp, ok := Fingerprint(Job{Config: cfg})
	if !ok {
		t.Fatal("test config should be cacheable")
	}

	// Memoize a silently wrong result under the correct fingerprint — the
	// failure mode the audit exists for.
	bad := core.Run(cfg)
	bad.EnergyMJ *= 2
	if err := cache.Put(fp, cfg.App.Name, "", bad); err != nil {
		t.Fatal(err)
	}

	r := New(1, cache)
	r.Check = true
	if _, err := r.Run(Job{Config: cfg}); err == nil {
		t.Fatal("audit accepted a tampered cache blob")
	} else if !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("unexpected audit error: %v", err)
	} else if !strings.Contains(err.Error(), "EnergyMJ") {
		// The structured delta summary must name exactly what moved, not
		// just report an opaque byte mismatch.
		t.Fatalf("audit error does not name the divergent field: %v", err)
	}
	if s := r.Stats(); s.AuditFailures != 1 {
		t.Fatalf("stats = %+v, want 1 audit failure", s)
	}

	// Without auditing the tampered blob is served verbatim — demonstrating
	// the hole the -check flag closes.
	plain := New(1, cache)
	res, err := plain.Run(Job{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyMJ != bad.EnergyMJ {
		t.Fatal("expected the unaudited runner to serve the tampered blob")
	}
}

func TestFingerprintUncacheableWithCheck(t *testing.T) {
	cfg := testConfig(t)
	cfg.Check = check.New()
	if _, ok := Fingerprint(Job{Config: cfg}); ok {
		t.Fatal("config with a caller-supplied auditor must not be cacheable")
	}
}
