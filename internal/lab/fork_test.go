package lab

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/snapshot"
)

const forkAt = 250 * event.Millisecond

// forkSweepJobs is a governor-tunable sweep sharing one prefix: job 0 is the
// base config itself, the rest vary a post-fork knob.
func forkSweepJobs(t *testing.T, n int) (core.Config, []Job) {
	t.Helper()
	base := testConfig(t)
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := base
		if i > 0 {
			cfg.Gov.SampleMs = 20 + 10*i
		}
		jobs[i] = Job{Config: cfg, Fork: &ForkSpec{Base: base, At: forkAt}}
	}
	return base, jobs
}

// directFork is the reference continuation: the core fork path with no lab
// machinery, against which the runner's results must be byte-identical.
func directFork(t *testing.T, base, variant core.Config) core.Result {
	t.Helper()
	sim, err := core.NewSim(base)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(forkAt)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := core.Resume(variant, st)
	if err != nil {
		t.Fatal(err)
	}
	forked.RunTo(variant.Duration)
	return forked.Finish()
}

func TestForkSweepSharesOnePrefix(t *testing.T) {
	base, jobs := forkSweepJobs(t, 4)
	r := New(2, nil)
	results, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}

	// Job 0 forks the base config itself, so byte-identity with a plain
	// from-scratch run is the contract, not an approximation.
	if want := core.Run(base); !reflect.DeepEqual(results[0], want) {
		t.Fatal("fork of the unchanged base config differs from the from-scratch run")
	}
	// Variant jobs must match the direct core fork path exactly.
	for i := 1; i < len(jobs); i++ {
		if want := directFork(t, base, jobs[i].Config); !reflect.DeepEqual(results[i], want) {
			t.Fatalf("variant %d: lab fork result differs from direct core fork", i)
		}
	}

	s := r.Stats()
	if s.Forks != 4 || s.Simulated != 4 {
		t.Fatalf("Forks=%d Simulated=%d, want 4 and 4", s.Forks, s.Simulated)
	}
	if s.PrefixMisses != 1 || s.PrefixHits != 3 {
		t.Fatalf("PrefixMisses=%d PrefixHits=%d, want one shared prefix simulation and 3 reuses", s.PrefixMisses, s.PrefixHits)
	}
}

func TestForkPrefixDiskTier(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base, jobs := forkSweepJobs(t, 2)

	warm := New(1, cache)
	warmRes, err := warm.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.PrefixMisses != 1 {
		t.Fatalf("cold runner PrefixMisses=%d, want 1", s.PrefixMisses)
	}

	// A fresh runner on the same cache must find the persisted prefix —
	// and, because fork jobs are fingerprintable, the memoized results too.
	reuse := New(1, cache)
	reuseRes, err := reuse.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmRes, reuseRes) {
		t.Fatal("warm rerun results differ from the cold run")
	}
	if s := reuse.Stats(); s.Hits != 2 || s.PrefixMisses != 0 || s.Simulated != 0 {
		t.Fatalf("warm runner Hits=%d PrefixMisses=%d Simulated=%d, want 2, 0, 0", s.Hits, s.PrefixMisses, s.Simulated)
	}

	// Invalidate the memoized results but keep the prefix blob: the rerun
	// must fork again, served entirely by the disk prefix tier.
	if _, err := cache.Invalidate(base.App.Name); err != nil {
		t.Fatal(err)
	}
	again := New(1, cache)
	againRes, err := again.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmRes, againRes) {
		t.Fatal("disk-prefix rerun results differ from the cold run")
	}
	if s := again.Stats(); s.PrefixMisses != 0 || s.PrefixHits != 2 || s.Forks != 2 {
		t.Fatalf("disk-tier runner PrefixMisses=%d PrefixHits=%d Forks=%d, want 0, 2, 2", s.PrefixMisses, s.PrefixHits, s.Forks)
	}
}

func TestForkPrefixCorruptBlobRebuilds(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t)
	baseFp, ok := Fingerprint(Job{Config: base})
	if !ok {
		t.Fatal("base config must be fingerprintable")
	}
	key := prefixKey(baseFp, forkAt)
	if err := cache.PutPrefix(key, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}

	r := New(1, cache)
	res, err := r.Run(Job{Config: base, Fork: &ForkSpec{Base: base, At: forkAt}})
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Run(base); !reflect.DeepEqual(res, want) {
		t.Fatal("fork after corrupt prefix blob differs from the from-scratch run")
	}
	if s := r.Stats(); s.PrefixMisses != 1 {
		t.Fatalf("PrefixMisses=%d, want 1 (corrupt blob must force a rebuild)", s.PrefixMisses)
	}
	// The corrupt blob was removed and replaced by a valid one.
	blob, ok := cache.GetPrefix(key)
	if !ok {
		t.Fatal("rebuilt prefix blob missing from the cache")
	}
	if _, err := snapshot.Decode(blob); err != nil {
		t.Fatalf("rebuilt prefix blob does not decode: %v", err)
	}
	p := cache.prefixPath(key)
	if !strings.Contains(p, filepath.Join("prefix", key[:2])) {
		t.Fatalf("prefix path %q not under the prefix/ area", p)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
}

// TestForkPrefixBudgetEviction pins the in-process tier's byte budget: with
// a budget too small for two decoded prefixes, the older one is evicted when
// the newer is handed out, a revisit rebuilds it (another PrefixMiss), and
// results are unaffected — eviction only trades memory for rebuild time.
func TestForkPrefixBudgetEviction(t *testing.T) {
	base := testConfig(t)
	jobA := Job{Config: base, Fork: &ForkSpec{Base: base, At: forkAt}}
	jobB := Job{Config: base, Fork: &ForkSpec{Base: base, At: 2 * forkAt}}
	want := core.Run(base)

	r := &Runner{Workers: 1, prefixBudget: 1} // at most one resident prefix
	for i, job := range []Job{jobA, jobB, jobA} {
		res, err := r.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		// Every job forks the unchanged base, so each result must equal the
		// from-scratch run regardless of which prefixes were evicted.
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("job %d: result differs from the from-scratch run after eviction", i)
		}
	}
	s := r.Stats()
	if s.PrefixMisses != 3 || s.PrefixHits != 0 {
		t.Fatalf("PrefixMisses=%d PrefixHits=%d, want 3 rebuilds and no reuse under a one-byte budget", s.PrefixMisses, s.PrefixHits)
	}
	if s.PrefixEvictions != 2 {
		t.Fatalf("PrefixEvictions=%d, want 2 (A evicted by B, then B by A)", s.PrefixEvictions)
	}

	// Unlimited budget: the same sequence keeps both prefixes resident.
	un := &Runner{Workers: 1, prefixBudget: -1}
	for _, job := range []Job{jobA, jobB, jobA} {
		if _, err := un.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	if s := un.Stats(); s.PrefixMisses != 2 || s.PrefixHits != 1 || s.PrefixEvictions != 0 {
		t.Fatalf("unlimited budget: PrefixMisses=%d PrefixHits=%d PrefixEvictions=%d, want 2, 1, 0", s.PrefixMisses, s.PrefixHits, s.PrefixEvictions)
	}
}

func TestForkRejections(t *testing.T) {
	base := testConfig(t)

	audited := &Runner{Check: true}
	if _, err := audited.Run(Job{Config: base, Fork: &ForkSpec{Base: base, At: forkAt}}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Check + Fork must fail loudly, got %v", err)
	}

	dirty := base
	dirty.Digest = &delta.Recorder{}
	plain := &Runner{}
	if _, err := plain.Run(Job{Config: base, Fork: &ForkSpec{Base: dirty, At: forkAt}}); err == nil || !strings.Contains(err.Error(), "not fingerprintable") {
		t.Fatalf("unfingerprintable fork base must fail loudly, got %v", err)
	}
	if _, err := plain.Run(Job{Config: base, Fork: &ForkSpec{Base: base, At: 0}}); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("zero fork time must fail loudly, got %v", err)
	}
	if s := plain.Stats(); s.Failures != 2 {
		t.Fatalf("Failures=%d, want 2", s.Failures)
	}
}

func TestForkFingerprintIdentity(t *testing.T) {
	base := testConfig(t)
	plainFp, ok := Fingerprint(Job{Config: base})
	if !ok {
		t.Fatal("base config must be fingerprintable")
	}
	forkFp, ok := Fingerprint(Job{Config: base, Fork: &ForkSpec{Base: base, At: forkAt}})
	if !ok {
		t.Fatal("fork job with a clean base must be fingerprintable")
	}
	if forkFp == plainFp {
		t.Fatal("fork job must not share a cache entry with the from-scratch run")
	}
	laterFp, _ := Fingerprint(Job{Config: base, Fork: &ForkSpec{Base: base, At: 2 * forkAt}})
	if laterFp == forkFp {
		t.Fatal("fork time must change the fingerprint")
	}
}
