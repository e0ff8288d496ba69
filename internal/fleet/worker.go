package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"biglittle/internal/lab"
)

// Worker is one stateless fleet executor: it pulls leased job specs from
// the coordinator, reconstructs and verifies each config, executes it
// through its own lab.Runner (so the worker's content-addressed cache and
// audit mode apply), and publishes the result back.
//
// Graceful shutdown: cancel the context passed to Run. The worker stops
// leasing immediately but finishes and publishes the job it holds — a
// drained worker never strands a lease for the TTL.
type Worker struct {
	// Client reaches the coordinator (required).
	Client *Client
	// Runner executes jobs locally (required). Give it a cache for warm
	// restarts; Workers>1 is pointless here — each fleet worker runs one
	// job at a time, parallelism comes from running more workers.
	Runner *lab.Runner
	// ID names this worker in leases and stats (default "host:pid").
	ID string
	// LeaseWait is the long-poll window per lease request (default 5s).
	LeaseWait time.Duration
	// Backoff is the pause after an unreachable or draining coordinator
	// (default 1s).
	Backoff time.Duration
	// Log, when non-nil, narrates the lease/execute/publish loop.
	Log *slog.Logger

	executed atomic.Int64
	failed   atomic.Int64
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	w.ID = fmt.Sprintf("%s:%d", host, os.Getpid())
	return w.ID
}

func (w *Worker) leaseWait() time.Duration {
	if w.LeaseWait > 0 {
		return w.LeaseWait
	}
	return 5 * time.Second
}

func (w *Worker) backoff() time.Duration {
	if w.Backoff > 0 {
		return w.Backoff
	}
	return time.Second
}

// Executed returns how many jobs this worker published successfully;
// Failed how many it reported as failed.
func (w *Worker) Executed() int64 { return w.executed.Load() }
func (w *Worker) Failed() int64   { return w.failed.Load() }

func (w *Worker) logf(msg string, args ...any) {
	if w.Log != nil {
		w.Log.Info(msg, append([]any{"worker", w.id()}, args...)...)
	}
}

// Run is the worker loop: lease, execute, publish, repeat, until ctx is
// cancelled. It returns nil on graceful shutdown — transient coordinator
// outages are retried with backoff, never fatal. A coordinator of another
// simulator build is fatal: Run returns the client's error without leasing.
func (w *Worker) Run(ctx context.Context) error {
	w.logf("worker starting", "coordinator", w.Client.Base)
	for ctx.Err() == nil {
		g, err := w.Client.Lease(ctx, w.id(), w.leaseWait())
		switch {
		case ctx.Err() != nil:
			// Cancelled mid-poll; no lease was granted.
		case errors.Is(err, errBuildMismatch):
			return err
		case errors.Is(err, ErrDraining):
			w.logf("coordinator draining; standing by")
			w.sleep(ctx, w.backoff())
		case err != nil:
			w.logf("lease error; backing off", "err", err)
			w.sleep(ctx, w.backoff())
		case g == nil:
			// Long-poll elapsed with no work; ask again.
		default:
			w.execute(ctx, g)
		}
	}
	w.logf("worker stopped", "executed", w.Executed(), "failed", w.Failed())
	return nil
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// execute runs one leased job and publishes the outcome. The publish uses a
// fresh context so a shutdown mid-simulation still delivers the result —
// that is the whole point of graceful drain.
func (w *Worker) execute(ctx context.Context, g *LeaseGrant) {
	job, err := g.Spec.Verify()
	if err != nil {
		w.failed.Add(1)
		w.logf("spec rejected", "job", short(g.Job), "err", err)
		w.publish(func(pctx context.Context) error {
			return w.Client.Fail(pctx, g, w.id(), err.Error())
		})
		return
	}

	// Heartbeat: renew the lease at TTL/3 while the simulation runs, so
	// long jobs are not reassigned under us. A Gone renewal means the
	// coordinator already gave the job away; we finish anyway and rely on
	// Complete's idempotency.
	stopRenew := make(chan struct{})
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		interval := g.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopRenew:
				return
			case <-t.C:
				if err := w.Client.Renew(context.Background(), g.Lease, w.id()); errors.Is(err, ErrGone) {
					w.logf("lease reassigned mid-job; finishing anyway", "job", short(g.Job))
					return
				}
			}
		}
	}()

	res, runErr := w.Runner.Run(job)
	close(stopRenew)
	<-renewDone

	if runErr != nil {
		w.failed.Add(1)
		w.logf("job failed", "job", short(g.Job), "app", g.Spec.App, "err", runErr)
		w.publish(func(pctx context.Context) error {
			return w.Client.Fail(pctx, g, w.id(), runErr.Error())
		})
		return
	}
	ok := w.publish(func(pctx context.Context) error {
		return w.Client.Complete(pctx, g, w.id(), res)
	})
	if ok {
		w.executed.Add(1)
		w.logf("job published", "job", short(g.Job), "app", g.Spec.App)
	}
}

// publish delivers a completion or failure with bounded retries on a
// context independent of the worker's (shutdown must not drop results).
func (w *Worker) publish(send func(context.Context) error) bool {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		pctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = send(pctx)
		cancel()
		if err == nil {
			return true
		}
		time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
	}
	w.logf("publish failed; result dropped (coordinator will requeue on lease expiry)", "err", err)
	return false
}
