package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/telemetry"
)

// JobState is one job's position in the coordinator's state machine:
//
//	pending --lease--> leased --complete--> done
//	   ^                  |
//	   +--expiry/fail-----+   (attempts < MaxAttempts)
//	                      +--> failed        (attempts exhausted)
//
// A completion for a pending job (late result from an expired lease) moves
// it straight to done — the result is deterministic, so whoever finishes
// first wins and the requeued copy is dropped at lease time.
type JobState string

const (
	StatePending JobState = "pending"
	StateLeased  JobState = "leased"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is backpressure: the pending queue is at MaxQueue (429).
	ErrQueueFull = errors.New("fleet: job queue full")
	// ErrDraining: the coordinator is shutting down and not accepting
	// submissions or granting leases (503).
	ErrDraining = errors.New("fleet: coordinator draining")
	// ErrGone: the lease being renewed no longer exists (410).
	ErrGone = errors.New("fleet: lease expired or reassigned")
	// ErrUnknownJob: completion or query for a job id the coordinator does
	// not hold (404).
	ErrUnknownJob = errors.New("fleet: unknown job")
	// ErrNotLeased: a completion or failure whose active lease names another
	// job, or a completion for a job no lease was ever granted for (409).
	// The coordinator's state is left as it was.
	ErrNotLeased = errors.New("fleet: lease does not hold this job")
)

// Options configures a Coordinator; the zero value gets sane defaults.
type Options struct {
	// MaxQueue bounds the pending-job queue (default 1024). Submissions
	// beyond it get ErrQueueFull — the 429 backpressure signal.
	MaxQueue int
	// LeaseTTL is how long a worker holds a job before the coordinator
	// assumes the worker died and requeues it (default 30s). Workers renew
	// long-running leases.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times a job may be leased before it is
	// failed outright (default 3).
	MaxAttempts int
	// Tel receives the fleet metrics (nil: a private collector). Counters:
	// fleet_jobs_submitted, fleet_jobs_deduped, fleet_jobs_completed,
	// fleet_jobs_failed, fleet_leases_granted, fleet_lease_expiries,
	// fleet_retries, fleet_backpressure, fleet_duplicate_results. Gauges:
	// fleet_queue_depth, fleet_leases_active, fleet_workers_live,
	// fleet_jobs_per_sec.
	Tel *telemetry.Collector
	// Log, when non-nil, narrates job transitions at Debug and lifecycle
	// events at Info.
	Log *slog.Logger
	// Now overrides the clock (tests). Setting it also disables the
	// background lease reaper, so expiry happens only on explicit
	// ExpireLeases calls and fake-clock tests stay deterministic.
	Now func() time.Time
}

// Coordinator owns the job queue, the lease table, and worker liveness.
// All methods are safe for concurrent use; Close stops the lease reaper.
type Coordinator struct {
	opt Options

	mu       sync.Mutex
	jobs     map[string]*fleetJob // by job id (= spec fingerprint)
	queue    []string             // pending job ids, FIFO (lazily compacted)
	pending  int                  // exact count of StatePending jobs
	leases   map[string]*lease    // active leases by lease id
	workers  map[string]*workerInfo
	wake     chan struct{} // closed and replaced whenever work arrives
	draining bool
	seq      int64

	recent []time.Time // completion timestamps for the jobs/sec gauge

	stopReaper chan struct{}
	reaperDone chan struct{}
}

type fleetJob struct {
	id       string
	spec     JobSpec
	state    JobState
	attempts int
	worker   string
	result   core.Result
	errMsg   string
	finished time.Time
	done     chan struct{} // closed on entering done/failed
}

type lease struct {
	id     string
	jobID  string
	worker string
	expiry time.Time
}

type workerInfo struct {
	lastSeen  time.Time
	active    int
	completed int64
	failed    int64
}

// NewCoordinator builds a coordinator and starts its lease reaper.
func NewCoordinator(opt Options) *Coordinator {
	if opt.MaxQueue <= 0 {
		opt.MaxQueue = 1024
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	if opt.Tel == nil {
		opt.Tel = telemetry.NewCollector()
	}
	manualClock := opt.Now != nil
	if !manualClock {
		opt.Now = time.Now
	}
	c := &Coordinator{
		opt:        opt,
		jobs:       map[string]*fleetJob{},
		leases:     map[string]*lease{},
		workers:    map[string]*workerInfo{},
		wake:       make(chan struct{}),
		stopReaper: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	// Define every metric up front so /metrics shows explicit zeros (the
	// smoke test asserts fleet_jobs_failed 0, which requires the counter to
	// exist before anything fails).
	for _, name := range []string{
		"fleet_jobs_submitted", "fleet_jobs_deduped", "fleet_jobs_completed",
		"fleet_jobs_failed", "fleet_leases_granted", "fleet_lease_expiries",
		"fleet_retries", "fleet_backpressure", "fleet_duplicate_results",
	} {
		c.opt.Tel.Counter(name)
	}
	c.opt.Tel.Gauge("fleet_queue_depth").Set(0)
	c.opt.Tel.Gauge("fleet_leases_active").Set(0)
	c.opt.Tel.Gauge("fleet_workers_live").Set(0)
	c.opt.Tel.Gauge("fleet_jobs_per_sec").Set(0)
	if manualClock {
		close(c.reaperDone) // no reaper to wait for in Close
	} else {
		go c.reap()
	}
	return c
}

// Close stops the lease reaper. The queue and the jobs are discarded with
// the coordinator; results persist in the submitters' and workers' caches.
func (c *Coordinator) Close() {
	close(c.stopReaper)
	<-c.reaperDone
}

// Tel exposes the metrics collector (for mounting into a shared /metrics).
func (c *Coordinator) Tel() *telemetry.Collector { return c.opt.Tel }

func (c *Coordinator) logf(level slog.Level, msg string, args ...any) {
	if c.opt.Log != nil {
		c.opt.Log.Log(context.Background(), level, msg, args...)
	}
}

// reap expires leases and garbage-collects terminal jobs on a timer sized
// to the lease TTL.
func (c *Coordinator) reap() {
	defer close(c.reaperDone)
	interval := c.opt.LeaseTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopReaper:
			return
		case <-t.C:
			c.ExpireLeases()
			c.gc()
		}
	}
}

// ExpireLeases requeues (or fails) every job whose lease has run out. The
// reaper calls it periodically; tests call it directly for determinism.
// It returns how many leases it expired.
func (c *Coordinator) ExpireLeases() int {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, l := range c.leases {
		if now.Before(l.expiry) {
			continue
		}
		n++
		delete(c.leases, id)
		if w := c.workers[l.worker]; w != nil && w.active > 0 {
			w.active--
		}
		c.count("fleet_lease_expiries")
		job := c.jobs[l.jobID]
		if job == nil || job.state != StateLeased {
			continue // completed late or already gone; nothing to requeue
		}
		c.requeueLocked(job, fmt.Sprintf("lease %s on worker %q expired", id, l.worker))
	}
	c.updateGauges()
	return n
}

// requeueLocked puts a leased job back in the queue, or fails it when its
// attempts are spent. Caller holds c.mu.
func (c *Coordinator) requeueLocked(job *fleetJob, why string) {
	if job.attempts >= c.opt.MaxAttempts {
		job.state = StateFailed
		job.errMsg = fmt.Sprintf("%s after %d attempts (last: %s)", job.spec.App, job.attempts, why)
		job.finished = c.opt.Now()
		job.worker = ""
		close(job.done)
		c.count("fleet_jobs_failed")
		c.logf(slog.LevelInfo, "job failed", "job", short(job.id), "app", job.spec.App, "attempts", job.attempts, "why", why)
		return
	}
	job.state = StatePending
	job.worker = ""
	c.queue = append(c.queue, job.id)
	c.pending++
	c.count("fleet_retries")
	c.logf(slog.LevelDebug, "job requeued", "job", short(job.id), "app", job.spec.App, "attempts", job.attempts, "why", why)
	c.notifyLocked()
}

// notifyLocked wakes every lease long-poller. Caller holds c.mu.
func (c *Coordinator) notifyLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// count increments a fleet counter (registry is goroutine-safe).
func (c *Coordinator) count(name string) { c.opt.Tel.Counter(name).Inc() }

// updateGauges refreshes the depth/lease/worker gauges. Caller holds c.mu.
func (c *Coordinator) updateGauges() {
	c.opt.Tel.Gauge("fleet_queue_depth").Set(float64(c.pending))
	c.opt.Tel.Gauge("fleet_leases_active").Set(float64(len(c.leases)))
	live := 0
	horizon := c.opt.Now().Add(-3 * c.opt.LeaseTTL)
	for _, w := range c.workers {
		if w.lastSeen.After(horizon) {
			live++
		}
	}
	c.opt.Tel.Gauge("fleet_workers_live").Set(float64(live))
}

// SubmitReply describes where a submitted job landed.
type SubmitReply struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Deduped bool     `json:"deduped"` // an identical job was already in flight or done
}

// Submit validates a spec, dedups it against in-flight and recently
// finished work, and otherwise enqueues it. ErrQueueFull signals
// backpressure; ErrDraining a shutdown in progress.
func (c *Coordinator) Submit(spec JobSpec) (SubmitReply, error) {
	// Validate outside the lock: reconstruction re-runs the fingerprint.
	if _, err := spec.Verify(); err != nil {
		return SubmitReply{}, err
	}
	id := spec.Fingerprint

	c.mu.Lock()
	defer c.mu.Unlock()
	c.count("fleet_jobs_submitted")
	if c.draining {
		return SubmitReply{}, ErrDraining
	}
	if job, ok := c.jobs[id]; ok {
		c.count("fleet_jobs_deduped")
		return SubmitReply{ID: id, State: job.state, Deduped: true}, nil
	}
	if c.pending >= c.opt.MaxQueue {
		c.count("fleet_backpressure")
		return SubmitReply{}, ErrQueueFull
	}
	job := &fleetJob{id: id, spec: spec, state: StatePending, done: make(chan struct{})}
	c.jobs[id] = job
	c.queue = append(c.queue, id)
	c.pending++
	c.notifyLocked()
	c.updateGauges()
	c.logf(slog.LevelDebug, "job queued", "job", short(id), "app", spec.App, "depth", c.pending)
	return SubmitReply{ID: id, State: StatePending}, nil
}

// LeaseGrant hands one job to a worker for at most TTL.
type LeaseGrant struct {
	Lease string        `json:"lease"`
	Job   string        `json:"job"`
	TTL   time.Duration `json:"ttl_ns"`
	Spec  JobSpec       `json:"spec"`
}

// Lease grants the oldest pending job to worker, long-polling up to maxWait
// for work to arrive. Returns (nil, nil) when no work appeared in time,
// ErrDraining while shutting down.
func (c *Coordinator) Lease(ctx context.Context, worker string, maxWait time.Duration) (*LeaseGrant, error) {
	deadline := c.opt.Now().Add(maxWait)
	for {
		c.mu.Lock()
		c.touchLocked(worker)
		if c.draining {
			c.mu.Unlock()
			return nil, ErrDraining
		}
		if g := c.grantLocked(worker); g != nil {
			c.updateGauges()
			c.mu.Unlock()
			return g, nil
		}
		wake := c.wake
		c.mu.Unlock()

		remaining := deadline.Sub(c.opt.Now())
		if remaining <= 0 {
			return nil, nil
		}
		t := time.NewTimer(remaining)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
			return nil, nil
		case <-wake:
			t.Stop()
		}
	}
}

// grantLocked pops the first still-pending job from the queue and builds
// its lease. Jobs that completed or failed while queued are skipped and
// dropped from the queue. Caller holds c.mu.
func (c *Coordinator) grantLocked(worker string) *LeaseGrant {
	for len(c.queue) > 0 {
		id := c.queue[0]
		c.queue = c.queue[1:]
		job := c.jobs[id]
		if job == nil || job.state != StatePending {
			continue // completed late, failed, or GC'd while queued
		}
		c.pending--
		job.state = StateLeased
		job.attempts++
		job.worker = worker
		c.seq++
		l := &lease{
			id:     fmt.Sprintf("l%d", c.seq),
			jobID:  id,
			worker: worker,
			expiry: c.opt.Now().Add(c.opt.LeaseTTL),
		}
		c.leases[l.id] = l
		if w := c.workers[worker]; w != nil {
			w.active++
		}
		c.count("fleet_leases_granted")
		c.logf(slog.LevelDebug, "lease granted", "lease", l.id, "job", short(id), "app", job.spec.App, "worker", worker, "attempt", job.attempts)
		return &LeaseGrant{Lease: l.id, Job: id, TTL: c.opt.LeaseTTL, Spec: job.spec}
	}
	return nil
}

// touchLocked records worker liveness. Caller holds c.mu.
func (c *Coordinator) touchLocked(worker string) {
	if worker == "" {
		return
	}
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{}
		c.workers[worker] = w
	}
	w.lastSeen = c.opt.Now()
}

// Renew extends an active lease by one TTL — the worker heartbeat for jobs
// that outlive the TTL. ErrGone tells the worker its job was reassigned.
func (c *Coordinator) Renew(leaseID, worker string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker)
	l, ok := c.leases[leaseID]
	if !ok {
		return ErrGone
	}
	l.expiry = c.opt.Now().Add(c.opt.LeaseTTL)
	return nil
}

// Complete publishes a finished job's result. It is idempotent against
// expired leases and duplicate completions: the first result a job sees
// wins (results are deterministic, so any duplicate is byte-identical) and
// later arrivals are counted and discarded. A result for a job that was
// never leased, or under a lease that holds another job, is refused with
// ErrNotLeased.
func (c *Coordinator) Complete(leaseID, jobID, worker string, res core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.claimLocked(leaseID, &jobID); err != nil {
		return err
	}
	job := c.jobs[jobID]
	if job != nil && job.attempts == 0 {
		return ErrNotLeased
	}
	c.touchLocked(worker)
	c.releaseLocked(leaseID)
	if job == nil {
		return ErrUnknownJob
	}
	if job.state == StateDone || job.state == StateFailed {
		c.count("fleet_duplicate_results")
		c.logf(slog.LevelDebug, "duplicate result discarded", "job", short(jobID), "worker", worker)
		return nil
	}
	if job.state == StatePending {
		// Late completion from an expired lease: the job is queued again but
		// the result arrived anyway. Accept it; the queued copy is skipped at
		// grant time because the state is no longer pending.
		c.pending--
	}
	job.state = StateDone
	job.result = res
	job.worker = worker
	job.finished = c.opt.Now()
	close(job.done)
	if w := c.workers[worker]; w != nil {
		w.completed++
	}
	c.count("fleet_jobs_completed")
	c.recent = append(c.recent, job.finished)
	if len(c.recent) > 4096 {
		c.recent = append([]time.Time(nil), c.recent[len(c.recent)-2048:]...)
	}
	c.updateGauges()
	c.logf(slog.LevelDebug, "job completed", "job", short(jobID), "app", job.spec.App, "worker", worker)
	return nil
}

// Fail reports that a worker could not execute its leased job. The job is
// requeued for another attempt, or failed once its attempts are spent. A
// failure under a lease that holds another job is refused with
// ErrNotLeased. A failure under a lease that is no longer active (it
// expired, so the job was requeued and maybe leased again) changes no job.
func (c *Coordinator) Fail(leaseID, jobID, worker, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.claimLocked(leaseID, &jobID); err != nil {
		return err
	}
	c.touchLocked(worker)
	_, active := c.leases[leaseID]
	c.releaseLocked(leaseID)
	job := c.jobs[jobID]
	if job == nil {
		return ErrUnknownJob
	}
	if w := c.workers[worker]; w != nil {
		w.failed++
	}
	if !active || job.state != StateLeased {
		return nil // a stale lease, or the job already completed elsewhere
	}
	c.requeueLocked(job, fmt.Sprintf("worker %q: %s", worker, msg))
	c.updateGauges()
	return nil
}

// claimLocked checks a completion or failure against its lease: it
// back-fills jobID from an active lease when the caller sent only the lease,
// and refuses a jobID the active lease does not hold. Caller holds c.mu.
func (c *Coordinator) claimLocked(leaseID string, jobID *string) error {
	l, ok := c.leases[leaseID]
	switch {
	case !ok:
		return nil
	case *jobID == "":
		*jobID = l.jobID
	case *jobID != l.jobID:
		return ErrNotLeased
	}
	return nil
}

// releaseLocked drops an active lease. Caller holds c.mu.
func (c *Coordinator) releaseLocked(leaseID string) {
	l, ok := c.leases[leaseID]
	if !ok {
		return
	}
	delete(c.leases, leaseID)
	if w := c.workers[l.worker]; w != nil && w.active > 0 {
		w.active--
	}
}

// JobStatus is the queryable view of one job.
type JobStatus struct {
	ID       string       `json:"id"`
	App      string       `json:"app"`
	State    JobState     `json:"state"`
	Attempts int          `json:"attempts"`
	Worker   string       `json:"worker,omitempty"`
	Result   *core.Result `json:"result,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// Job returns a job's status, long-polling up to maxWait for it to reach a
// terminal state (maxWait <= 0: immediate snapshot).
func (c *Coordinator) Job(ctx context.Context, id string, maxWait time.Duration) (JobStatus, error) {
	c.mu.Lock()
	job := c.jobs[id]
	if job == nil {
		c.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	done := job.done
	c.mu.Unlock()

	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := JobStatus{
		ID: job.id, App: job.spec.App, State: job.state,
		Attempts: job.attempts, Worker: job.worker,
		Error: job.errMsg,
	}
	if job.state == StateDone {
		res := job.result
		st.Result = &res
	}
	return st, nil
}

// retain is how long terminal jobs stay queryable before gc drops them.
const retain = 5 * time.Minute

// gc drops terminal jobs older than retain so a sweep of millions of
// configs does not pin them all in coordinator memory.
func (c *Coordinator) gc() {
	horizon := c.opt.Now().Add(-retain)
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, job := range c.jobs {
		if (job.state == StateDone || job.state == StateFailed) && job.finished.Before(horizon) {
			delete(c.jobs, id)
		}
	}
}

// Drain stops granting leases and accepting submissions, then waits for
// every active lease to finish (complete, fail, or expire) or for ctx to
// run out. The graceful-shutdown half of the lease protocol: /readyz flips
// to 503 the moment draining starts.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.notifyLocked() // release long-polling lease waiters into ErrDraining
	c.mu.Unlock()
	c.logf(slog.LevelInfo, "draining: no new leases; waiting for in-flight jobs")
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		c.ExpireLeases()
		c.mu.Lock()
		n := len(c.leases)
		c.mu.Unlock()
		if n == 0 {
			c.logf(slog.LevelInfo, "drained")
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: drain timed out with %d leases still active", n)
		case <-t.C:
		}
	}
}

// Draining reports whether Drain has started (readyz 503).
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// LeaseView is one active lease in a stats snapshot.
type LeaseView struct {
	Lease   string  `json:"lease"`
	Job     string  `json:"job"`
	App     string  `json:"app"`
	Worker  string  `json:"worker"`
	Attempt int     `json:"attempt"`
	AgeSec  float64 `json:"age_sec"`
	TTLSec  float64 `json:"ttl_sec"` // time until expiry
}

// WorkerView is one worker's liveness row in a stats snapshot.
type WorkerView struct {
	ID          string  `json:"id"`
	LastSeenSec float64 `json:"last_seen_sec"` // seconds since last contact
	Live        bool    `json:"live"`          // seen within 3 lease TTLs
	Active      int     `json:"active"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
}

// Stats is the coordinator's queue/lease/worker snapshot (GET /fleet/stats,
// `bllab fleet`).
type Stats struct {
	Draining   bool    `json:"draining"`
	QueueDepth int     `json:"queue_depth"`
	Jobs       int     `json:"jobs"` // jobs currently held (all states)
	Pending    int     `json:"pending"`
	Leased     int     `json:"leased"`
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	JobsPerSec float64 `json:"jobs_per_sec"` // completions over the last 10s

	Submitted     int64 `json:"submitted"`
	Deduped       int64 `json:"deduped"`
	Completed     int64 `json:"completed"`
	FailedJobs    int64 `json:"failed_jobs"`
	LeaseExpiries int64 `json:"lease_expiries"`
	Retries       int64 `json:"retries"`
	Backpressure  int64 `json:"backpressure"`

	Leases  []LeaseView  `json:"leases,omitempty"`
	Workers []WorkerView `json:"workers,omitempty"`
}

// Stats snapshots the coordinator and refreshes the derived gauges.
func (c *Coordinator) Stats() Stats {
	now := c.opt.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Draining:      c.draining,
		QueueDepth:    c.pending,
		Jobs:          len(c.jobs),
		Submitted:     c.opt.Tel.Counter("fleet_jobs_submitted").Value(),
		Deduped:       c.opt.Tel.Counter("fleet_jobs_deduped").Value(),
		Completed:     c.opt.Tel.Counter("fleet_jobs_completed").Value(),
		FailedJobs:    c.opt.Tel.Counter("fleet_jobs_failed").Value(),
		LeaseExpiries: c.opt.Tel.Counter("fleet_lease_expiries").Value(),
		Retries:       c.opt.Tel.Counter("fleet_retries").Value(),
		Backpressure:  c.opt.Tel.Counter("fleet_backpressure").Value(),
	}
	for _, job := range c.jobs {
		switch job.state {
		case StatePending:
			s.Pending++
		case StateLeased:
			s.Leased++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		}
	}
	// Completions in the last 10 s -> jobs/sec.
	window := now.Add(-10 * time.Second)
	n := 0
	for i := len(c.recent) - 1; i >= 0 && c.recent[i].After(window); i-- {
		n++
	}
	s.JobsPerSec = float64(n) / 10
	c.opt.Tel.Gauge("fleet_jobs_per_sec").Set(s.JobsPerSec)

	for id, l := range c.leases {
		v := LeaseView{
			Lease: id, Job: short(l.jobID), Worker: l.worker,
			AgeSec: now.Sub(l.expiry.Add(-c.opt.LeaseTTL)).Seconds(),
			TTLSec: l.expiry.Sub(now).Seconds(),
		}
		if job := c.jobs[l.jobID]; job != nil {
			v.App, v.Attempt = job.spec.App, job.attempts
		}
		s.Leases = append(s.Leases, v)
	}
	sort.Slice(s.Leases, func(i, j int) bool { return s.Leases[i].Lease < s.Leases[j].Lease })
	horizon := now.Add(-3 * c.opt.LeaseTTL)
	for id, w := range c.workers {
		s.Workers = append(s.Workers, WorkerView{
			ID: id, LastSeenSec: now.Sub(w.lastSeen).Seconds(),
			Live: w.lastSeen.After(horizon), Active: w.active,
			Completed: w.completed, Failed: w.failed,
		})
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })
	c.updateGauges()
	return s
}
