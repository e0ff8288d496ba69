package lab

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"biglittle/internal/core"
	"biglittle/internal/telemetry"
)

// dedupBatch is a batch with every kind of repetition RunAll dedups: an
// exact duplicate (jobs 0 and 1), an equivalent pair that differs only in
// knobs ondemand never reads (2 and 3), a failing job and its duplicate (4
// and 5), an unfingerprintable job that carries the config of job 0 (6),
// and a job with no twin (7). Its fingerprints are the four of jobs 0, 2, 4
// and 7.
func dedupBatch(t *testing.T) []Job {
	base := testConfig(t)
	od := base
	od.Governor = core.Ondemand
	od.Gov.SampleMs = 40
	od.Gov.TargetLoad = 90
	twin := od
	twin.Gov.TargetLoad = 55
	twin.Gov.DownThreshold = 20
	twin.PinnedMHz = map[int]int{0: 900}
	bad := base
	bad.Platform = "no-such-soc"
	observed := base
	observed.Telemetry = telemetry.NewCollector()
	perf := base
	perf.Governor = core.Performance
	return []Job{{Config: base}, {Config: base}, {Config: od}, {Config: twin},
		{Config: bad}, {Config: bad}, {Config: observed}, {Config: perf}}
}

// aloneResults runs each job of the batch by itself on a fresh cacheless
// runner: what RunAll must return, slot for slot.
func aloneResults(t *testing.T, jobs []Job) ([]string, []string) {
	res := make([]string, len(jobs))
	errs := make([]string, len(jobs))
	for i, job := range jobs {
		if job.Config.Telemetry != nil {
			job.Config.Telemetry = telemetry.NewCollector()
		}
		r, err := New(1, nil).Run(job)
		res[i] = resultJSON(t, r)
		if err != nil {
			errs[i] = err.Error()
		}
	}
	return res, errs
}

func resultJSON(t *testing.T, r core.Result) string {
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestRunAllDedupsFingerprints pins RunAll's batch dedup: with a cache, and
// with a remote executor and no cache, each distinct fingerprint runs once,
// the results come back in submission order equal to running each job
// alone, the duplicate of a failed job fails with the same error, and the
// counters add up (a duplicate is a hit, or a failure). A cacheless runner
// has no fingerprints and runs every job.
func TestRunAllDedupsFingerprints(t *testing.T) {
	jobs := dedupBatch(t)
	fps := map[string]bool{}
	for _, i := range []int{0, 2, 4, 7} {
		fp, ok := Fingerprint(jobs[i])
		if !ok {
			t.Fatalf("job %d is not fingerprintable", i)
		}
		fps[fp] = true
	}
	if fp2, _ := Fingerprint(jobs[3]); !fps[fp2] || len(fps) != 4 {
		t.Fatalf("the batch holds %d distinct fingerprints (equivalent pair shared: %v), want 4 with the pair shared", len(fps), fps[fp2])
	}
	wantRes, wantErrs := aloneResults(t, jobs)
	if wantErrs[4] == "" {
		t.Fatal("the failing job ran without error")
	}

	check := func(t *testing.T, r *Runner) Stats {
		t.Helper()
		got, err := r.RunAll(jobs)
		if err == nil || err.Error() != wantErrs[4] {
			t.Fatalf("RunAll error = %v, want the failing job's %q", err, wantErrs[4])
		}
		for i := range jobs {
			if s := resultJSON(t, got[i]); s != wantRes[i] {
				t.Errorf("job %d: result differs from running it alone", i)
			}
		}
		s := r.Stats()
		if s.Jobs != 8 || s.Failures != 2 || s.Hits+s.Remote+s.Simulated != s.Jobs-s.Failures {
			t.Errorf("stats %+v: want 8 jobs, 2 failures, and hits+remote+simulated = 6", s)
		}
		return s
	}

	t.Run("cache", func(t *testing.T) {
		cache, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := check(t, &Runner{Workers: 2, Cache: cache})
		// Jobs 0, 2 and 7 simulate; so does the observed job 6, which has no
		// fingerprint. Job 4 fails. Jobs 1 and 3 are hits; job 5 a failure.
		if s.Simulated != 4 || s.Hits != 2 || s.Misses != 4 || s.Stored != 3 || s.Retries != 1 {
			t.Errorf("stats %+v: want 4 simulated, 2 hits, 4 misses, 3 stored, 1 retry", s)
		}
	})

	t.Run("remote", func(t *testing.T) {
		var calls atomic.Int64
		ex := executorFunc(func(job Job) (core.Result, bool, error) {
			calls.Add(1)
			if job.Config.Platform != "" {
				return core.Result{}, false, nil
			}
			return core.Run(job.Config), true, nil
		})
		s := check(t, &Runner{Workers: 2, Remote: ex})
		// The executor is offered each fingerprint once and declines the
		// failing one, which then fails locally.
		if calls.Load() != 4 || s.Remote != 3 || s.Simulated != 1 || s.Hits != 2 {
			t.Errorf("stats %+v after %d executor calls: want 4 calls, 3 remote, 1 simulated, 2 hits", s, calls.Load())
		}
	})

	t.Run("cacheless", func(t *testing.T) {
		s := check(t, &Runner{Workers: 2})
		if s.Simulated != 6 || s.Hits != 0 {
			t.Errorf("stats %+v: a cacheless runner must simulate all 6 good jobs", s)
		}
	})
}

// TestUnloggedJobsLogForFree holds the per-job log calls of a runner with no
// logger to allocating nothing: a warm-cache Run allocates exactly what its
// Fingerprint and Cache.Get allocate, and a warm RunAll of 65 identical jobs
// allocates about one object per duplicate, its fingerprint string, beyond
// a one-job batch. Boxing each call's fields would cost two per duplicate.
func TestUnloggedJobsLogForFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Config: testConfig(t)}
	r := &Runner{Workers: 1, Cache: c}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	fp, _ := Fingerprint(job)
	parts := testing.AllocsPerRun(50, func() {
		Fingerprint(job)
		if _, ok := c.Get(fp); !ok {
			t.Fatal("cache miss")
		}
	})
	if run := testing.AllocsPerRun(50, func() { r.Run(job) }); run != parts {
		t.Errorf("a warm Run allocates %.0f objects, its Fingerprint and Cache.Get %.0f", run, parts)
	}

	batch := make([]Job, 65)
	for i := range batch {
		batch[i] = job
	}
	one := testing.AllocsPerRun(20, func() { r.RunAll(batch[:1]) })
	all := testing.AllocsPerRun(20, func() { r.RunAll(batch) })
	if dups := len(batch) - 1; all-one > 1.25*float64(dups) {
		t.Errorf("RunAll of %d identical jobs allocates %.0f objects beyond one job's: %.2f per duplicate",
			len(batch), all-one, (all-one)/float64(dups))
	}
}
