package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/lab"
)

// startFleet serves a coordinator over real HTTP (httptest) and returns a
// client pointed at it — the full wire path workers and sweeps use.
func startFleet(t *testing.T, opt Options) (*Coordinator, *Client) {
	t.Helper()
	coord := NewCoordinator(opt)
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return coord, &Client{Base: srv.URL, Timeout: time.Minute, PollWait: 100 * time.Millisecond}
}

// startWorker runs a fleet worker until the test ends, returning a cancel
// that waits for it to stop. A nil runner gets a runner with its own cache.
func startWorker(t *testing.T, client *Client, id string, runner *lab.Runner) context.CancelFunc {
	t.Helper()
	if runner == nil {
		runner = cachedRunner(t)
	}
	w := &Worker{
		Client:    client,
		Runner:    runner,
		ID:        id,
		LeaseWait: 50 * time.Millisecond,
		Backoff:   10 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// cachedRunner is a one-slot runner with its own result cache.
func cachedRunner(t *testing.T) *lab.Runner {
	t.Helper()
	cache, err := lab.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &lab.Runner{Workers: 1, Cache: cache}
}

// TestFleetByteIdenticalToInProcess is the acceptance gate: a sweep executed
// through a coordinator and two worker processes' runners must produce the
// same bytes as plain in-process RunAll, in the same order.
func TestFleetByteIdenticalToInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet sweep")
	}
	_, client := startFleet(t, Options{})
	startWorker(t, client, "w1", nil)
	startWorker(t, client, "w2", nil)

	var jobs []lab.Job
	for seed := int64(1); seed <= 6; seed++ {
		jobs = append(jobs, testJob(t, seed))
	}

	remote := &lab.Runner{Workers: 4, Remote: client}
	got, err := remote.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := remote.Stats(); s.Remote != int64(len(jobs)) || s.Simulated != 0 {
		t.Fatalf("stats = %+v, want all %d jobs remote", s, len(jobs))
	}

	local := &lab.Runner{Workers: 4}
	want, err := local.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("fleet results differ from in-process:\nfleet %s\nlocal %s", a, b)
	}
}

// TestForkJobsStayLocal pins the snapshot/fleet boundary end to end: a sweep
// mixing plain and fork-accelerated jobs through a live coordinator ships
// only the plain jobs out; fork jobs are rejected as non-remotable — loudly —
// and simulate locally, and the mixed sweep's bytes still equal in-process
// RunAll with no fleet attached.
func TestForkJobsStayLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet sweep")
	}
	_, client := startFleet(t, Options{})
	startWorker(t, client, "w1", nil)
	var logBuf bytes.Buffer
	client.Log = slog.New(slog.NewTextHandler(&logBuf, nil))

	base := testJob(t, 1).Config
	jobs := []lab.Job{testJob(t, 1), testJob(t, 2)}
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.Gov.SampleMs = 30 + 10*i
		jobs = append(jobs, lab.Job{Config: cfg, Fork: &lab.ForkSpec{Base: base, At: base.Duration / 2}})
	}

	// The fork spec must be rejected at the serialization boundary too, so a
	// direct Submit cannot smuggle one past the client.
	if _, err := SpecFromJob(jobs[2]); err == nil {
		t.Fatal("SpecFromJob accepted a fork-accelerated job")
	}

	remote := &lab.Runner{Workers: 2, Remote: client}
	got, err := remote.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := remote.Stats(); s.Remote != 2 || s.Forks != 2 || s.Simulated != 2 {
		t.Fatalf("stats = %+v, want 2 remote plain jobs and 2 local forks", s)
	}
	if !strings.Contains(logBuf.String(), "non-remotable") {
		t.Fatalf("fork rejection was silent; client log:\n%s", logBuf.String())
	}

	local := &lab.Runner{Workers: 2}
	want, err := local.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("mixed fleet/fork sweep differs from in-process:\nfleet %s\nlocal %s", a, b)
	}
}

// TestWorkerKilledMidJob pins the robustness story end to end: a worker
// leases a job over HTTP and dies; the lease expires, a live worker reruns
// the job, and exactly one result lands.
func TestWorkerKilledMidJob(t *testing.T) {
	coord, client := startFleet(t, Options{LeaseTTL: 150 * time.Millisecond})
	spec := testSpec(t, 1)
	rep, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes the lease over the wire, then "crashes":
	// no renewal, no completion, no fail.
	g, err := client.Lease(context.Background(), "doomed", 100*time.Millisecond)
	if err != nil || g == nil {
		t.Fatalf("lease = %v, %v", g, err)
	}

	// The reaper requeues the job once the TTL lapses; a live worker then
	// picks it up and completes it.
	startWorker(t, client, "survivor", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := client.Await(ctx, rep.ID)
	if err != nil {
		t.Fatal(err)
	}

	st, err := client.JobStatus(context.Background(), rep.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Attempts != 2 || st.Worker != "survivor" {
		t.Fatalf("status = %+v, want done on attempt 2 by survivor", st)
	}
	s := coord.Stats()
	if s.Completed != 1 || s.LeaseExpiries != 1 || s.Retries != 1 {
		t.Fatalf("completed/expiries/retries = %d/%d/%d, want 1/1/1",
			s.Completed, s.LeaseExpiries, s.Retries)
	}

	// And the result is still the in-process result.
	want := core.Run(testJob(t, 1).Config)
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("retried result differs from in-process:\n%s\n%s", a, b)
	}
}

// TestHTTPBackpressure pins the 429 contract on the wire: Retry-After is
// set, the typed error carries it, and draining turns submissions into 503.
func TestHTTPBackpressure(t *testing.T) {
	coord, client := startFleet(t, Options{MaxQueue: 1})
	if _, err := client.Submit(context.Background(), testSpec(t, 1)); err != nil {
		t.Fatal(err)
	}

	// Raw request so the header is visible.
	body, _ := json.Marshal(submitRequest{Spec: testSpec(t, 2)})
	resp, err := http.Post(client.Base+"/fleet/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The typed client surfaces it as backpressure, not a generic error.
	_, err = client.Submit(context.Background(), testSpec(t, 2))
	var bp errBackpressure
	if !errors.As(err, &bp) || bp.retryAfter <= 0 {
		t.Fatalf("client error = %v, want errBackpressure with a positive hint", err)
	}

	// Draining: /readyz flips 503 and submissions are refused outright.
	go coord.Drain(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for !coord.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r2, err := http.Get(client.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", r2.StatusCode)
	}
	h, err := http.Get(client.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", h.StatusCode)
	}
}

// TestConcurrentSubmitLeaseComplete hammers one coordinator from many
// submitters and stub workers at once — the -race gate for the lock
// discipline around queue, leases, and long-polls.
func TestConcurrentSubmitLeaseComplete(t *testing.T) {
	coord, client := startFleet(t, Options{MaxQueue: 4}) // small: exercise backpressure too

	// Stub workers complete jobs without simulating (results need not be
	// real here; determinism is covered elsewhere).
	wctx, stopWorkers := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	for i := 0; i < 3; i++ {
		workers.Add(1)
		go func(id string) {
			defer workers.Done()
			for wctx.Err() == nil {
				g, err := client.Lease(wctx, id, 50*time.Millisecond)
				if err != nil || g == nil {
					continue
				}
				client.Complete(wctx, g, id, core.Result{EnergyMJ: 1})
			}
		}(fmt.Sprintf("stub%d", i))
	}

	// Specs are minted on the test goroutine (testSpec may t.Fatal); seeds
	// collide so the dedup path runs concurrently too.
	const n = 24
	specs := make([]JobSpec, n)
	for i := range specs {
		specs[i] = testSpec(t, int64(i%8)+1)
	}
	var subs sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		subs.Add(1)
		go func(spec JobSpec) {
			defer subs.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			id, err := client.submit(ctx, spec) // backoff loop: rides out 429s
			if err != nil {
				errs <- err
				return
			}
			if _, err := client.Await(ctx, id); err != nil {
				errs <- err
			}
		}(specs[i])
	}
	subs.Wait()
	stopWorkers()
	workers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := coord.Stats(); s.Completed != 8 || s.FailedJobs != 0 {
		t.Fatalf("completed/failed = %d/%d, want 8 completed (one per distinct seed), 0 failed", s.Completed, s.FailedJobs)
	}
}

// TestWorkerCacheAnswersFreshCoordinator pins where a fleet result is
// cached, now that the coordinator stores none: a sweep through coordinator
// A warms its worker's cache, and the same sweep from a cacheless client
// through a fresh coordinator B, as after a restart, is answered from that
// cache result by result, with nothing simulated.
func TestWorkerCacheAnswersFreshCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end fleet sweep")
	}
	var jobs []lab.Job
	for seed := int64(1); seed <= 4; seed++ {
		jobs = append(jobs, testJob(t, seed))
	}
	worker := cachedRunner(t)
	sweep := func(name string) []core.Result {
		t.Helper()
		_, client := startFleet(t, Options{})
		stop := startWorker(t, client, "w1", worker)
		defer stop()
		remote := &lab.Runner{Workers: 4, Remote: client}
		res, err := remote.RunAll(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if s := remote.Stats(); s.Remote != int64(len(jobs)) {
			t.Fatalf("coordinator %s: client stats %+v, want all %d jobs remote", name, s, len(jobs))
		}
		return res
	}
	a := sweep("A")
	before := worker.Stats()
	b := sweep("B")
	after := worker.Stats()
	for i := range a {
		ja, _ := json.Marshal(a[i])
		jb, _ := json.Marshal(b[i])
		if !bytes.Equal(ja, jb) {
			t.Fatalf("job %d: coordinator B returned\n%s\nA returned\n%s", i, jb, ja)
		}
	}
	if hits, sims := after.Hits-before.Hits, after.Simulated-before.Simulated; hits != int64(len(jobs)) || sims != 0 {
		t.Fatalf("worker under coordinator B: %d cache hits, %d simulated; want %d and 0", hits, sims, len(jobs))
	}
}

// skewBuild is a transport that reports /healthz replies as coming from
// another simulator build: it sets their build header to build, or drops
// it when build is "".
type skewBuild struct{ build string }

func (s skewBuild) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == "/healthz" {
		resp.Header.Del(buildHeader)
		if s.build != "" {
			resp.Header.Set(buildHeader, s.build)
		}
	}
	return resp, err
}

// TestBuildMismatchRefused pins the fleet's one-build rule: a client whose
// coordinator names another build, or none, moves no job. A sweep's job
// falls back to a local simulation, equal to the in-process result, with
// one remote error and nothing queued; a worker's Run returns the error
// without leasing, and the job it could have taken stays pending.
func TestBuildMismatchRefused(t *testing.T) {
	for name, theirs := range map[string]string{"another build": "0123456789ab+dirty", "no build": ""} {
		t.Run(name, func(t *testing.T) { refusesBuild(t, theirs) })
	}
}

// refusesBuild runs TestBuildMismatchRefused against a coordinator whose
// /healthz names the build theirs.
func refusesBuild(t *testing.T, theirs string) {
	coord, plain := startFleet(t, Options{})
	skewed := &Client{Base: plain.Base, HTTP: &http.Client{Transport: skewBuild{theirs}}, Timeout: time.Minute}

	job := testJob(t, 1)
	r := &lab.Runner{Workers: 1, Remote: skewed}
	got, err := r.RunAll([]lab.Job{job})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got[0])
	b, _ := json.Marshal(core.Run(job.Config))
	if !bytes.Equal(a, b) {
		t.Fatal("the local fallback differs from the in-process result")
	}
	if s := r.Stats(); s.RemoteErrors != 1 || s.Remote != 0 || s.Simulated != 1 {
		t.Fatalf("client stats %+v, want 1 remote error and 1 local simulation", s)
	}
	if s := coord.Stats(); s.Submitted != 0 || s.Jobs != 0 {
		t.Fatalf("coordinator took %d submissions and holds %d jobs, want none", s.Submitted, s.Jobs)
	}

	spec := testSpec(t, 2)
	if _, err := coord.Submit(spec); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Client: skewed, Runner: &lab.Runner{Workers: 1}, ID: "skewed", LeaseWait: 50 * time.Millisecond}
	err = w.Run(context.Background())
	if !errors.Is(err, errBuildMismatch) || !strings.Contains(err.Error(), build()) {
		t.Fatalf("worker Run = %v, want the build mismatch naming both builds", err)
	}
	if st, _ := coord.Job(context.Background(), spec.Fingerprint, 0); st.State != StatePending || st.Attempts != 0 {
		t.Fatalf("job after the refused worker: %+v, want pending and never leased", st)
	}
}

// flakyHealthz fails the first /healthz request, as an unreachable
// coordinator would, and passes the rest through.
type flakyHealthz struct{ failed atomic.Bool }

func (f *flakyHealthz) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/healthz" && f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestBuildCheckRetriesTransientErrors pins that an unreachable coordinator
// fails one request but is not remembered: the next request checks the
// build again and goes through.
func TestBuildCheckRetriesTransientErrors(t *testing.T) {
	_, plain := startFleet(t, Options{})
	c := &Client{Base: plain.Base, HTTP: &http.Client{Transport: &flakyHealthz{}}}
	spec := testSpec(t, 1)
	if _, err := c.Submit(context.Background(), spec); err == nil || errors.Is(err, errBuildMismatch) {
		t.Fatalf("first submit = %v, want the transport error", err)
	}
	if rep, err := c.Submit(context.Background(), spec); err != nil || rep.ID != spec.Fingerprint {
		t.Fatalf("second submit = %+v, %v, want the job queued", rep, err)
	}
}
