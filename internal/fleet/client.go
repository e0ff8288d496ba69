package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/lab"
)

// Client talks to a coordinator. It implements lab.Executor, so attaching
// one to lab.Runner.Remote routes every fingerprintable job through the
// fleet; it is also the worker's and bllab's API handle.
//
// The zero value is not usable — Base is required. All methods are safe for
// concurrent use (RunAll calls Execute from every pool worker).
type Client struct {
	// Base is the coordinator root, e.g. "http://127.0.0.1:8377".
	Base string
	// HTTP overrides the transport (default: http.DefaultClient with no
	// global timeout; every request carries a context deadline instead,
	// sized to the long-poll it performs).
	HTTP *http.Client
	// Timeout bounds one Execute end to end — submission backoff included
	// (default 10m). A sweep behind a full queue waits patiently; a dead
	// coordinator fails fast on connection errors instead.
	Timeout time.Duration
	// PollWait is the long-poll window per result query (default 10s).
	PollWait time.Duration
	// Log, when non-nil, narrates submissions and backpressure at Debug.
	Log *slog.Logger

	// forkWarned dedupes the fork-job decline warning: an explore or fork
	// sweep routes thousands of fork-accelerated jobs past the executor, and
	// one Warn explains the routing better than one per job.
	forkWarned atomic.Bool

	// buildMu serializes the build check, so concurrent first requests
	// share one /healthz exchange; buildChecked is set once it named a
	// build, and buildErr when that build is not ours.
	buildMu      sync.Mutex
	buildChecked bool
	buildErr     error
}

// A coordinator names its simulator build, computed once, in buildHeader on
// /healthz, and a client moves jobs only through one of its own build.
var (
	buildHeader      = "X-Biglittle-Build"
	build            = sync.OnceValue(lab.CodeVersion)
	errBuildMismatch = errors.New("fleet: the coordinator runs another simulator build")
)

// checkBuild refuses a coordinator whose build differs or is missing: a
// fingerprint hashes the config, not the code, so a worker of another build
// would verify a spec and return that build's numbers. /healthz is read
// once; a mismatch is remembered, an unreachable coordinator is not.
func (c *Client) checkBuild(ctx context.Context) error {
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if c.buildChecked {
		return c.buildErr
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("fleet: coordinator unreachable: %w", err)
	}
	resp.Body.Close()
	c.buildChecked = true
	if theirs := resp.Header.Get(buildHeader); theirs != build() {
		c.buildErr = fmt.Errorf("%w: coordinator build %q, this process %q", errBuildMismatch, theirs, build())
	}
	return c.buildErr
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Minute
}

func (c *Client) pollWait() time.Duration {
	if c.PollWait > 0 {
		return c.PollWait
	}
	return 10 * time.Second
}

// errBackpressure carries the coordinator's Retry-After hint.
type errBackpressure struct{ retryAfter time.Duration }

func (e errBackpressure) Error() string {
	return fmt.Sprintf("fleet: queue full, retry after %v", e.retryAfter)
}

// Execute implements lab.Executor: serialize the job, submit it (honoring
// 429 backpressure), and long-poll for the result. Jobs that cannot travel
// return ok=false so the runner simulates them locally.
func (c *Client) Execute(job lab.Job) (core.Result, bool, error) {
	if job.Fork != nil {
		// Louder than the generic decline: a caller who pointed a
		// fork-accelerated sweep at the fleet should see why it ran locally.
		// Warned once per client — a rung of thousands of fork jobs (blexplore
		// screening) stays local by design, not per-job surprise.
		if c.Log != nil && c.forkWarned.CompareAndSwap(false, true) {
			c.Log.Warn("fork-accelerated jobs are non-remotable; simulating them locally (full-fidelity from-scratch rungs still ship to the fleet)",
				"app", job.Config.App.Name, "fork_at", job.Fork.At)
		}
		return core.Result{}, false, nil
	}
	spec, err := SpecFromJob(job)
	if err != nil {
		if c.Log != nil {
			c.Log.Debug("job not remotable", "app", job.Config.App.Name, "why", err)
		}
		return core.Result{}, false, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	id, err := c.submit(ctx, spec)
	if err != nil {
		return core.Result{}, true, err
	}
	res, err := c.Await(ctx, id)
	return res, true, err
}

// Submit sends one spec, returning the job id. A full queue surfaces as an
// error carrying the Retry-After hint; submit() below wraps it in a
// backoff loop.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (SubmitReply, error) {
	var rep SubmitReply
	status, body, hdr, err := c.post(ctx, "/fleet/jobs", submitRequest{Spec: spec}, &rep)
	if err != nil {
		return SubmitReply{}, err
	}
	switch status {
	case http.StatusAccepted:
		return rep, nil
	case http.StatusTooManyRequests:
		ra := time.Second
		if v := hdr.Get("Retry-After"); v != "" {
			if secs, perr := strconv.Atoi(v); perr == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		return SubmitReply{}, errBackpressure{retryAfter: ra}
	default:
		return SubmitReply{}, fmt.Errorf("fleet: submit %s: %s", spec.App, httpError(status, body))
	}
}

// submit retries backpressured submissions until ctx expires, per the
// coordinator's Retry-After hint.
func (c *Client) submit(ctx context.Context, spec JobSpec) (string, error) {
	for {
		rep, err := c.Submit(ctx, spec)
		var bp errBackpressure
		if !errors.As(err, &bp) {
			if err != nil {
				return "", err
			}
			return rep.ID, nil
		}
		if c.Log != nil {
			c.Log.Debug("backpressured", "app", spec.App, "retry_after", bp.retryAfter)
		}
		t := time.NewTimer(bp.retryAfter)
		select {
		case <-ctx.Done():
			t.Stop()
			return "", fmt.Errorf("fleet: gave up submitting %s under backpressure: %w", spec.App, ctx.Err())
		case <-t.C:
		}
	}
}

// Await long-polls a job until it is done or failed.
func (c *Client) Await(ctx context.Context, id string) (core.Result, error) {
	for {
		st, err := c.JobStatus(ctx, id, c.pollWait())
		if err != nil {
			return core.Result{}, err
		}
		switch st.State {
		case StateDone:
			if st.Result == nil {
				return core.Result{}, fmt.Errorf("fleet: job %s done without result", short(id))
			}
			return *st.Result, nil
		case StateFailed:
			return core.Result{}, fmt.Errorf("fleet: job %s failed on the fleet: %s", short(id), st.Error)
		}
		if ctx.Err() != nil {
			return core.Result{}, fmt.Errorf("fleet: timed out awaiting job %s: %w", short(id), ctx.Err())
		}
	}
}

// JobStatus queries one job, long-polling up to wait for a terminal state.
func (c *Client) JobStatus(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	if err := c.checkBuild(ctx); err != nil {
		return JobStatus{}, err
	}
	path := "/fleet/jobs/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var st JobStatus
	err := c.get(ctx, path, "job "+short(id), &st)
	return st, err
}

// Lease asks for work on behalf of a worker, long-polling up to wait.
// Returns (nil, nil) when the coordinator had nothing, ErrDraining when it
// is shutting down.
func (c *Client) Lease(ctx context.Context, worker string, wait time.Duration) (*LeaseGrant, error) {
	var g LeaseGrant
	status, body, _, err := c.post(ctx, "/fleet/lease",
		leaseRequest{Worker: worker, WaitMs: wait.Milliseconds()}, &g)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return &g, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusServiceUnavailable:
		return nil, ErrDraining
	default:
		return nil, fmt.Errorf("fleet: lease: %s", httpError(status, body))
	}
}

// Renew extends a lease; ErrGone means the job was reassigned.
func (c *Client) Renew(ctx context.Context, leaseID, worker string) error {
	status, body, _, err := c.post(ctx, "/fleet/renew", renewRequest{Lease: leaseID, Worker: worker}, nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusNoContent:
		return nil
	case http.StatusGone:
		return ErrGone
	default:
		return fmt.Errorf("fleet: renew: %s", httpError(status, body))
	}
}

// Complete publishes a result for a leased job.
func (c *Client) Complete(ctx context.Context, g *LeaseGrant, worker string, res core.Result) error {
	status, body, _, err := c.post(ctx, "/fleet/complete",
		completeRequest{Lease: g.Lease, Job: g.Job, Worker: worker, Result: res}, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("fleet: complete: %s", httpError(status, body))
	}
	return nil
}

// Fail reports a job the worker could not execute.
func (c *Client) Fail(ctx context.Context, g *LeaseGrant, worker, msg string) error {
	status, body, _, err := c.post(ctx, "/fleet/fail",
		failRequest{Lease: g.Lease, Job: g.Job, Worker: worker, Error: msg}, nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("fleet: fail: %s", httpError(status, body))
	}
	return nil
}

// Stats fetches the coordinator's queue/lease/worker snapshot. It moves no
// job, so it works against a coordinator of any build.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.get(ctx, "/fleet/stats", "stats", &s)
	return s, err
}

// get fetches one JSON document and decodes it into out; what names the
// document in errors.
func (c *Client) get(ctx context.Context, path, what string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("fleet: coordinator unreachable: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: %s", what, httpError(resp.StatusCode, body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("fleet: bad %s: %w", what, err)
	}
	return nil
}

// post sends one JSON request and decodes a JSON reply into out (when out
// is non-nil and the status carries a body worth decoding). Every post
// moves a job, so it checks the coordinator's build first.
func (c *Client) post(ctx context.Context, path string, in, out any) (int, []byte, http.Header, error) {
	if err := c.checkBuild(ctx); err != nil {
		return 0, nil, nil, err
	}
	payload, err := json.Marshal(in)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("fleet: coordinator unreachable: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && len(body) > 0 {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, body, resp.Header, fmt.Errorf("fleet: bad reply from %s: %w", path, err)
		}
	}
	return resp.StatusCode, body, resp.Header, nil
}

func httpError(status int, body []byte) string {
	msg := string(bytes.TrimSpace(body))
	if len(msg) > 200 {
		msg = msg[:200] + "..."
	}
	if msg == "" {
		return fmt.Sprintf("HTTP %d", status)
	}
	return fmt.Sprintf("HTTP %d: %s", status, msg)
}
