package lab

import (
	"encoding/json"
	"errors"
	"testing"

	"biglittle/internal/core"
	"biglittle/internal/telemetry"
)

// stubExecutor is a scriptable lab.Executor: it records every job it was
// offered and answers from its fields.
type stubExecutor struct {
	calls   int
	decline bool  // Execute returns ok=false
	err     error // Execute returns this error
	run     bool  // compute the real result (simulating "the fleet ran it")
}

func (s *stubExecutor) Execute(job Job) (core.Result, bool, error) {
	s.calls++
	if s.err != nil {
		return core.Result{}, true, s.err
	}
	if s.decline {
		return core.Result{}, false, nil
	}
	if s.run {
		return core.Run(job.Config), true, nil
	}
	return core.Result{}, true, nil
}

// TestRemoteExecution pins the remote fast path: a fingerprintable job goes
// to the executor, is not simulated locally, is counted as Remote, and is
// stored into the local cache so the next run is a plain cache hit that
// never touches the fleet again.
func TestRemoteExecution(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ex := &stubExecutor{run: true}
	r := &Runner{Workers: 1, Cache: cache, Remote: ex}

	cfg := testConfig(t)
	res, err := r.Run(Job{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if ex.calls != 1 {
		t.Fatalf("executor calls = %d, want 1", ex.calls)
	}
	s := r.Stats()
	if s.Remote != 1 || s.Simulated != 0 || s.Stored != 1 {
		t.Fatalf("stats = %+v, want 1 remote, 0 simulated, 1 stored", s)
	}

	// The remote result must be the result: byte-compare against a local run.
	want := core.Run(cfg)
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("remote result differs from local:\nremote %s\nlocal  %s", a, b)
	}

	// Warm re-run: cache hit, no second remote call.
	if _, err := r.Run(Job{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if ex.calls != 1 {
		t.Fatalf("warm run still called the executor (%d calls)", ex.calls)
	}
	if s := r.Stats(); s.Hits != 1 {
		t.Fatalf("stats after warm run = %+v, want 1 hit", s)
	}
}

// TestRemoteErrorFallsBackLocal: a failing fleet degrades to in-process
// simulation with the error counted, never to a lost job.
func TestRemoteErrorFallsBackLocal(t *testing.T) {
	ex := &stubExecutor{err: errors.New("coordinator unreachable")}
	r := &Runner{Workers: 1, Remote: ex}
	cfg := testConfig(t)
	res, err := r.Run(Job{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if ex.calls != 1 || s.RemoteErrors != 1 || s.Simulated != 1 || s.Remote != 0 {
		t.Fatalf("stats = %+v (calls %d), want 1 remote error + 1 local simulation", s, ex.calls)
	}
	want := core.Run(cfg)
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatal("fallback result differs from a plain local run")
	}
}

// TestRemoteDeclinedRunsLocal: an executor that cannot ship the job
// (ok=false) leaves no trace beyond the attempt — the job simulates locally
// and is not a remote error.
func TestRemoteDeclinedRunsLocal(t *testing.T) {
	ex := &stubExecutor{decline: true}
	r := &Runner{Workers: 1, Remote: ex}
	if _, err := r.Run(Job{Config: testConfig(t)}); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if ex.calls != 1 || s.Simulated != 1 || s.Remote != 0 || s.RemoteErrors != 0 {
		t.Fatalf("stats = %+v (calls %d), want declined remote + local simulation", s, ex.calls)
	}
}

// TestRemoteSkipsUnfingerprintableJobs: jobs carrying live observers never
// reach the executor at all — they cannot be identified, let alone shipped.
func TestRemoteSkipsUnfingerprintableJobs(t *testing.T) {
	ex := &stubExecutor{run: true}
	r := &Runner{Workers: 1, Remote: ex}
	cfg := testConfig(t)
	cfg.Telemetry = telemetry.NewCollector()
	if _, err := r.Run(Job{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if ex.calls != 0 {
		t.Fatalf("executor was offered an unfingerprintable job (%d calls)", ex.calls)
	}
	if s := r.Stats(); s.Simulated != 1 {
		t.Fatalf("stats = %+v, want 1 local simulation", s)
	}
}

// TestRemoteResultAudited: with Check set, a remote result is re-simulated
// locally and compared byte for byte, exactly like a cache hit.
func TestRemoteResultAudited(t *testing.T) {
	ex := &stubExecutor{run: true}
	r := &Runner{Workers: 1, Remote: ex, Check: true}
	if _, err := r.Run(Job{Config: testConfig(t)}); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Remote != 1 || s.Audited != 1 || s.AuditFailures != 0 {
		t.Fatalf("stats = %+v, want 1 remote audited", s)
	}

	// A lying fleet is caught: corrupt the result the executor returns.
	lying := executorFunc(func(job Job) (core.Result, bool, error) {
		res := core.Run(job.Config)
		res.EnergyMJ += 1
		return res, true, nil
	})
	r2 := &Runner{Workers: 1, Remote: lying, Check: true}
	if _, err := r2.Run(Job{Config: testConfig(t)}); err == nil {
		t.Fatal("corrupted remote result passed the audit")
	} else if s := r2.Stats(); s.AuditFailures != 1 {
		t.Fatalf("stats = %+v, want 1 audit failure (err %v)", s, err)
	}
}

type executorFunc func(Job) (core.Result, bool, error)

func (f executorFunc) Execute(job Job) (core.Result, bool, error) { return f(job) }
