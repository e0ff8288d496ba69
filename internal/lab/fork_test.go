package lab

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/snapshot"
	"biglittle/internal/thermal"
)

const forkAt = 250 * event.Millisecond

// forkSweepJobs is a governor-tunable sweep sharing one prefix: job 0 is the
// base config itself, the rest vary a post-fork knob. Each job carries its
// own *ForkSpec, equal to the others, so the runner must share the prefix
// by content, not by pointer.
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

// TestForkPrefixMisfiledBlobRebuilds pins that the disk tier serves a blob
// only as the prefix its key names. A fifa15 prefix captured at 1 s, stored
// under the same base's 3 s key or under a browser base's, is removed and
// rebuilt like a corrupt blob: the variant's result equals a cacheless
// runner's, and the one prefix is counted as simulated.
func TestForkPrefixMisfiledBlobRebuilds(t *testing.T) {
	fifa := core.DefaultConfig(apps.FIFA15())
	fifa.Duration = 4 * event.Second
	browser := core.DefaultConfig(apps.Browser())
	browser.Duration = fifa.Duration

	sim, err := core.NewSim(fifa)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(event.Second)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		base core.Config
	}{{"earlier capture", fifa}, {"other app", browser}} {
		t.Run(tc.name, func(t *testing.T) {
			cache, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fp, ok := Fingerprint(Job{Config: tc.base})
			if !ok {
				t.Fatal("base config must be fingerprintable")
			}
			const at = 3 * event.Second
			key := prefixKey(fp, at)
			if err := cache.PutPrefix(key, blob); err != nil {
				t.Fatal(err)
			}
			variant := tc.base
			variant.Gov.SampleMs = 40
			jobs := []Job{{Config: variant, Fork: &ForkSpec{Base: tc.base, At: at}}}

			want, err := New(1, nil).RunAll(jobs)
			if err != nil {
				t.Fatal(err)
			}
			r := New(1, cache)
			got, err := r.RunAll(jobs)
			if err != nil {
				t.Fatalf("misfiled prefix blob failed the job: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("fork over a misfiled prefix blob differs from a cacheless runner's")
			}
			if s := r.Stats(); s.PrefixMisses != 1 || s.PrefixHits != 0 {
				t.Fatalf("PrefixMisses=%d PrefixHits=%d, want 1 and 0 (a misfiled blob must be rebuilt)", s.PrefixMisses, s.PrefixHits)
			}
			stored, ok := cache.GetPrefix(key)
			if !ok {
				t.Fatal("rebuilt prefix blob missing from the cache")
			}
			rebuilt, err := snapshot.Decode(stored)
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.App != tc.base.App.Name || rebuilt.Time != at {
				t.Fatalf("stored prefix is %s at %v, want %s at %v", rebuilt.App, rebuilt.Time, tc.base.App.Name, at)
			}
		})
	}
}

// TestPrefixMismatch pins each field the prefix check compares: a capture
// of the base at the fork time matches, with the fork time capped at the
// base's horizon as RunTo caps it, and a change to any compared field does
// not.
func TestPrefixMismatch(t *testing.T) {
	base := testConfig(t)
	sim, err := core.NewSim(base)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(base.Duration)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []event.Time{base.Duration, 2 * base.Duration} {
		if err := prefixMismatch(st, &ForkSpec{Base: base, At: at}); err != nil {
			t.Fatalf("capture at %v does not match a fork at %v: %v", st.Time, at, err)
		}
	}
	for name, mut := range map[string]func(s *snapshot.State){
		"seed":      func(s *snapshot.State) { s.Seed++ },
		"platform":  func(s *snapshot.State) { s.Platform = "snapdragon810" },
		"scheduler": func(s *snapshot.State) { s.SchedKind = core.EAS.String() },
		"governor":  func(s *snapshot.State) { s.GovKind = core.Ondemand.String() },
		"horizon":   func(s *snapshot.State) { s.Duration++ },
		"thermal":   func(s *snapshot.State) { s.Thermal = &thermal.Snap{} },
		"time":      func(s *snapshot.State) { s.Time-- },
	} {
		bad := *st
		mut(&bad)
		if prefixMismatch(&bad, &ForkSpec{Base: base, At: base.Duration}) == nil {
			t.Errorf("%s: a prefix that differs from the spec's matches", name)
		}
	}
}

// TestForkPrefixLivesOneBatch pins that a batch's prefixes die with it: a
// cacheless runner that runs the same fork batch twice simulates the prefix
// once per batch, and both batches return the same results.
func TestForkPrefixLivesOneBatch(t *testing.T) {
	_, jobs := forkSweepJobs(t, 3)
	r := New(2, nil)
	first, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the second batch's results differ from the first's")
	}
	if s := r.Stats(); s.PrefixMisses != 2 || s.PrefixHits != 4 {
		t.Fatalf("PrefixMisses=%d PrefixHits=%d, want one prefix simulation and 2 reuses per batch", s.PrefixMisses, s.PrefixHits)
	}
}

// TestForkBadSpecFailsOnlyItsJobs pins that a spec that cannot have a
// prefix fails the jobs that name it, with Run's error, and no other job of
// the batch.
func TestForkBadSpecFailsOnlyItsJobs(t *testing.T) {
	base, jobs := forkSweepJobs(t, 2)
	bad := &ForkSpec{Base: base, At: 0}
	jobs = append(jobs, Job{Config: base, Fork: bad}, Job{Config: jobs[1].Config, Fork: bad})
	r := New(2, nil)
	results, err := r.RunAll(jobs)
	if err == nil || !strings.Contains(err.Error(), "fork time must be positive") {
		t.Fatalf("RunAll error = %v, want the bad spec's", err)
	}
	for i := 0; i < 2; i++ {
		if results[i].Duration == 0 {
			t.Errorf("job %d, which names a good spec, got no result", i)
		}
	}
	for i := 2; i < 4; i++ {
		if results[i].Duration != 0 {
			t.Errorf("job %d, which names the bad spec, got a result", i)
		}
	}
	if s := r.Stats(); s.Failures != 2 || s.Forks != 2 || s.PrefixMisses != 1 || s.PrefixHits != 1 {
		t.Fatalf("Failures=%d Forks=%d PrefixMisses=%d PrefixHits=%d, want 2, 2, 1, 1", s.Failures, s.Forks, s.PrefixMisses, s.PrefixHits)
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
	session := base
	session.Phases = []core.Phase{{App: base.App, Duration: base.Duration}}
	if _, err := plain.Run(Job{Config: base, Fork: &ForkSpec{Base: session, At: forkAt}}); err == nil || !strings.Contains(err.Error(), "session phases") {
		t.Fatalf("a session as fork base must fail loudly, got %v", err)
	}
	if _, err := plain.Run(Job{Config: base, Fork: &ForkSpec{Base: base, At: 0}}); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("zero fork time must fail loudly, got %v", err)
	}
	if s := plain.Stats(); s.Failures != 3 {
		t.Fatalf("Failures=%d, want 3", s.Failures)
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
