package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"biglittle/internal/core"
)

// fakeClock drives the coordinator's idea of time so lease expiry is
// deterministic regardless of test-host scheduling.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestCoordinator(t *testing.T, opt Options) *Coordinator {
	t.Helper()
	c := NewCoordinator(opt)
	t.Cleanup(c.Close)
	return c
}

func testSpec(t testing.TB, seed int64) JobSpec {
	t.Helper()
	spec, err := SpecFromJob(testJob(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSubmitLeaseComplete(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	spec := testSpec(t, 1)

	rep, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.State != StatePending || rep.ID != spec.Fingerprint {
		t.Fatalf("submit reply = %+v", rep)
	}

	g, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}
	if g.Job != rep.ID || g.Spec.Fingerprint != spec.Fingerprint {
		t.Fatalf("leased wrong job: %+v", g)
	}

	res := core.Result{EnergyMJ: 42}
	if err := c.Complete(g.Lease, g.Job, "w1", res); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(context.Background(), rep.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil || st.Result.EnergyMJ != 42 {
		t.Fatalf("status after complete = %+v", st)
	}
	if st.Attempts != 1 || st.Worker != "w1" {
		t.Fatalf("attempts/worker = %d/%q, want 1/w1", st.Attempts, st.Worker)
	}
}

func TestSubmitDedupes(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	spec := testSpec(t, 1)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deduped {
		t.Fatalf("identical resubmission not deduped: %+v", rep)
	}
	if s := c.Stats(); s.Pending != 1 {
		t.Fatalf("dedup still enqueued a second copy: %+v", s)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	c := newTestCoordinator(t, Options{MaxQueue: 1})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(testSpec(t, 2)) // distinct seed: not a dedup
	if err != ErrQueueFull {
		t.Fatalf("second submit = %v, want ErrQueueFull", err)
	}
	if s := c.Stats(); s.Backpressure != 1 {
		t.Fatalf("backpressure counter = %d, want 1", s.Backpressure)
	}

	// Leasing the queued job frees the slot: the refused job submits cleanly.
	if g, err := c.Lease(context.Background(), "w1", 0); err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}
	if _, err := c.Submit(testSpec(t, 2)); err != nil {
		t.Fatalf("submit after lease freed the queue: %v", err)
	}
}

func TestLeaseExpiryReassignsJob(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Second, Now: clock.now})
	spec := testSpec(t, 1)
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}

	// Worker a takes the job and dies (never completes, never renews).
	ga, err := c.Lease(context.Background(), "a", 0)
	if err != nil || ga == nil {
		t.Fatalf("lease a = %v, %v", ga, err)
	}
	clock.advance(31 * time.Second)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}

	// The job is pending again; worker b picks it up as attempt 2.
	gb, err := c.Lease(context.Background(), "b", 0)
	if err != nil || gb == nil {
		t.Fatalf("lease b = %v, %v", gb, err)
	}
	if gb.Job != ga.Job {
		t.Fatalf("b leased %s, want the expired job %s", gb.Job, ga.Job)
	}
	if err := c.Complete(gb.Lease, gb.Job, "b", core.Result{EnergyMJ: 7}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Job(context.Background(), gb.Job, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Attempts != 2 || st.Worker != "b" {
		t.Fatalf("status = %+v, want done on attempt 2 by b", st)
	}

	// The dead worker's result arrives late: discarded, not double-counted.
	if err := c.Complete(ga.Lease, ga.Job, "a", core.Result{EnergyMJ: 7}); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Completed != 1 {
		t.Fatalf("completed = %d after duplicate result, want 1", s.Completed)
	}
	if got := c.Tel().Counter("fleet_duplicate_results").Value(); got != 1 {
		t.Fatalf("duplicate_results = %d, want 1", got)
	}
	if s.LeaseExpiries != 1 || s.Retries != 1 {
		t.Fatalf("expiries/retries = %d/%d, want 1/1", s.LeaseExpiries, s.Retries)
	}
}

func TestLateCompletionBeatsRequeue(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Second, Now: clock.now})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease(context.Background(), "slow", 0)
	if err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}
	clock.advance(31 * time.Second)
	c.ExpireLeases() // job requeued as pending

	// The slow worker finishes anyway. Its result is accepted...
	if err := c.Complete(g.Lease, g.Job, "slow", core.Result{EnergyMJ: 3}); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Job(context.Background(), g.Job, 0)
	if st.State != StateDone {
		t.Fatalf("late completion not accepted: %+v", st)
	}
	// ...and the requeued copy is skipped at grant time, not re-executed.
	if g2, err := c.Lease(context.Background(), "other", 0); err != nil || g2 != nil {
		t.Fatalf("requeued copy of a done job was granted: %+v, %v", g2, err)
	}
	if s := c.Stats(); s.QueueDepth != 0 {
		t.Fatalf("queue depth = %d, want 0", s.QueueDepth)
	}
}

// TestPublishUnderAnotherJobsLease pins that a completion or failure must
// name the job its lease holds: with A leased as l1 and B pending,
// completing or failing B under l1, or completing B with no lease at all,
// is refused with 409 and changes nothing. B is not done, and l1 still
// holds A, so A is requeued when l1 expires.
func TestPublishUnderAnotherJobsLease(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Second, Now: clock.now})
	a, b := testSpec(t, 1), testSpec(t, 2)
	for _, spec := range []JobSpec{a, b} {
		if _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	g, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || g == nil || g.Job != a.Fingerprint {
		t.Fatalf("lease = %+v, %v, want job A", g, err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	post := func(path string, body any) int {
		t.Helper()
		data := mustMarshal(t, body)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		return rec.Code
	}
	res := core.Result{EnergyMJ: 42}
	for name, code := range map[string]int{
		"complete B under A's lease": post("/fleet/complete", completeRequest{Lease: g.Lease, Job: b.Fingerprint, Worker: "w1", Result: res}),
		"fail B under A's lease":     post("/fleet/fail", failRequest{Lease: g.Lease, Job: b.Fingerprint, Worker: "w1", Error: "boom"}),
		"complete B with no lease":   post("/fleet/complete", completeRequest{Job: b.Fingerprint, Worker: "w1", Result: res}),
	} {
		if code != http.StatusConflict {
			t.Errorf("%s: status %d, want 409", name, code)
		}
	}
	if err := c.Complete(g.Lease, b.Fingerprint, "w1", res); err != ErrNotLeased {
		t.Errorf("Complete(B) under A's lease = %v, want ErrNotLeased", err)
	}
	if err := c.Fail(g.Lease, b.Fingerprint, "w1", "boom"); err != ErrNotLeased {
		t.Errorf("Fail(B) under A's lease = %v, want ErrNotLeased", err)
	}

	if st, _ := c.Job(context.Background(), b.Fingerprint, 0); st.State != StatePending || st.Attempts != 0 {
		t.Errorf("B after the refusals: %+v, want pending and never leased", st)
	}
	if s := c.Stats(); s.Completed != 0 || len(s.Leases) != 1 || s.Leases[0].Lease != g.Lease || s.QueueDepth != 1 {
		t.Fatalf("stats after the refusals: completed %d, leases %+v, depth %d; want 0, A's lease alone, 1", s.Completed, s.Leases, s.QueueDepth)
	}
	clock.advance(time.Hour)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("ExpireLeases = %d, want A's lease", n)
	}
	if st, _ := c.Job(context.Background(), a.Fingerprint, 0); st.State != StatePending {
		t.Fatalf("A after its lease expired: %+v, want pending again", st)
	}
}

func TestAttemptsExhaustedFailsJob(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: time.Second, MaxAttempts: 2, Now: clock.now})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	var id string
	for i := 0; i < 2; i++ {
		g, err := c.Lease(context.Background(), "flaky", 0)
		if err != nil || g == nil {
			t.Fatalf("lease %d = %v, %v", i, g, err)
		}
		id = g.Job
		clock.advance(2 * time.Second)
		c.ExpireLeases()
	}
	st, err := c.Job(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("after exhausting attempts: %+v, want failed with an error", st)
	}
	if s := c.Stats(); s.FailedJobs != 1 {
		t.Fatalf("failed counter = %d, want 1", s.FailedJobs)
	}
}

func TestWorkerFailRequeues(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}
	if err := c.Fail(g.Lease, g.Job, "w1", "spec rejected"); err != nil {
		t.Fatal(err)
	}
	g2, err := c.Lease(context.Background(), "w2", 0)
	if err != nil || g2 == nil || g2.Job != g.Job {
		t.Fatalf("failed job not requeued: %+v, %v", g2, err)
	}
}

// TestStaleFailLeavesReleasedJob pins that a failure under a lease that has
// expired changes nothing: with job A leased to w1 as l1, l1 expired and A
// leased again to w2 as l2, w1's Fail(l1, A) leaves A leased under l2 on
// its second attempt with nothing queued, and w2's Complete(l2, A) then
// finishes it.
func TestStaleFailLeavesReleasedJob(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Second, Now: clock.now})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	l1, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || l1 == nil {
		t.Fatalf("lease l1 = %v, %v", l1, err)
	}
	clock.advance(31 * time.Second)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("ExpireLeases = %d, want 1", n)
	}
	l2, err := c.Lease(context.Background(), "w2", 0)
	if err != nil || l2 == nil || l2.Job != l1.Job {
		t.Fatalf("lease l2 = %+v, %v, want job A again", l2, err)
	}

	if err := c.Fail(l1.Lease, l1.Job, "w1", "boom"); err != nil {
		t.Fatalf("stale Fail = %v, want nil", err)
	}
	if st, _ := c.Job(context.Background(), l1.Job, 0); st.State != StateLeased || st.Worker != "w2" || st.Attempts != 2 {
		t.Fatalf("A after the stale Fail: %+v, want leased to w2 on attempt 2", st)
	}
	if s := c.Stats(); len(s.Leases) != 1 || s.Leases[0].Lease != l2.Lease || s.QueueDepth != 0 || s.Retries != 1 {
		t.Fatalf("stats after the stale Fail: leases %+v, depth %d, retries %d; want l2 alone, 0, 1", s.Leases, s.QueueDepth, s.Retries)
	}

	if err := c.Complete(l2.Lease, l2.Job, "w2", core.Result{EnergyMJ: 5}); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Job(context.Background(), l2.Job, 0)
	if st.State != StateDone || st.Worker != "w2" || st.Result == nil || st.Result.EnergyMJ != 5 {
		t.Fatalf("A after l2's completion: %+v, want done by w2", st)
	}
	if s := c.Stats(); s.Completed != 1 || s.FailedJobs != 0 {
		t.Fatalf("completed/failed = %d/%d, want 1/0", s.Completed, s.FailedJobs)
	}
}

func TestRenewExtendsLease(t *testing.T) {
	clock := newFakeClock()
	c := newTestCoordinator(t, Options{LeaseTTL: 30 * time.Second, Now: clock.now})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease(context.Background(), "w1", 0)
	clock.advance(20 * time.Second)
	if err := c.Renew(g.Lease, "w1"); err != nil {
		t.Fatal(err)
	}
	clock.advance(20 * time.Second) // 40s total: only fatal without the renewal
	if n := c.ExpireLeases(); n != 0 {
		t.Fatalf("renewed lease expired anyway (%d)", n)
	}
	clock.advance(11 * time.Second)
	if n := c.ExpireLeases(); n != 1 {
		t.Fatalf("lease did not expire after renewal lapsed (%d)", n)
	}
	if err := c.Renew(g.Lease, "w1"); err != ErrGone {
		t.Fatalf("renewing an expired lease = %v, want ErrGone", err)
	}
}

func TestDrainStopsLeasingAndWaits(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	if _, err := c.Submit(testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease(context.Background(), "w1", 0)
	if err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}

	drained := make(chan error, 1)
	go func() { drained <- c.Drain(context.Background()) }()

	// Draining flips readiness and refuses new work.
	deadline := time.Now().Add(5 * time.Second)
	for !c.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !c.Draining() {
		t.Fatal("Drain never set draining")
	}
	if _, err := c.Submit(testSpec(t, 2)); err != ErrDraining {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if _, err := c.Lease(context.Background(), "w2", 0); err != ErrDraining {
		t.Fatalf("lease while draining = %v, want ErrDraining", err)
	}

	// The in-flight job finishing releases the drain.
	if err := c.Complete(g.Lease, g.Job, "w1", core.Result{}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not return after the held job completed")
	}
}

// workerRoutes are the routes a worker posts to, with the statuses each
// documents (server.go).
var workerRoutes = []struct {
	path   string
	status []int
}{
	{"/fleet/lease", []int{http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusServiceUnavailable}},
	{"/fleet/renew", []int{http.StatusNoContent, http.StatusBadRequest, http.StatusGone}},
	{"/fleet/complete", []int{http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict}},
	{"/fleet/fail", []int{http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict}},
}

// FuzzWorkerBodies posts arbitrary bodies to the worker routes of a fresh
// coordinator that holds job A under lease l1 and job B pending. Whatever
// the body, the reply must be a status the route documents, and the
// bookkeeping must hold: every leased job is held by an active lease, the
// pending count is the number of pending jobs, and no job is done that was
// never leased.
func FuzzWorkerBodies(f *testing.F) {
	a, b := testSpec(f, 1), testSpec(f, 2)
	body := func(v any) []byte { return mustMarshal(f, v) }
	res := core.Result{EnergyMJ: 1}
	f.Add(uint8(0), body(leaseRequest{Worker: "w2", WaitMs: 50}))
	f.Add(uint8(1), body(renewRequest{Lease: "l1", Worker: "w1"}))
	f.Add(uint8(2), body(completeRequest{Lease: "l1", Job: a.Fingerprint, Worker: "w1", Result: res}))
	f.Add(uint8(3), body(failRequest{Lease: "l1", Job: a.Fingerprint, Worker: "w1", Error: "boom"}))
	f.Add(uint8(2), body(completeRequest{Lease: "l1", Job: b.Fingerprint, Worker: "w1", Result: res}))
	f.Add(uint8(3), body(failRequest{Lease: "l1", Job: b.Fingerprint, Worker: "w1", Error: "boom"}))
	f.Fuzz(func(t *testing.T, route uint8, data []byte) {
		c := NewCoordinator(Options{Now: newFakeClock().now})
		defer c.Close()
		for _, spec := range []JobSpec{a, b} {
			if _, err := c.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		if g, err := c.Lease(context.Background(), "w1", 0); err != nil || g == nil || g.Lease != "l1" || g.Job != a.Fingerprint {
			t.Fatalf("lease = %+v, %v, want A as l1", g, err)
		}
		mux := http.NewServeMux()
		c.Mount(mux)
		rt := workerRoutes[int(route)%len(workerRoutes)]
		// A lease body may ask to long-poll for up to a minute.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(data)).WithContext(ctx))
		if !slices.Contains(rt.status, rec.Code) {
			t.Errorf("%s: status %d, not one of %v: %s", rt.path, rec.Code, rt.status, rec.Body)
		}

		c.mu.Lock()
		defer c.mu.Unlock()
		held := map[string]bool{}
		for _, l := range c.leases {
			held[l.jobID] = true
		}
		pending := 0
		for id, job := range c.jobs {
			switch {
			case job.state == StateLeased && !held[id]:
				t.Errorf("%s: job %s is leased, but no active lease holds it", rt.path, short(id))
			case job.state == StateDone && job.attempts == 0:
				t.Errorf("%s: job %s is done, but was never leased", rt.path, short(id))
			case job.state == StatePending:
				pending++
			}
		}
		if pending != c.pending {
			t.Errorf("%s: pending count %d, but %d jobs are pending", rt.path, c.pending, pending)
		}
	})
}
