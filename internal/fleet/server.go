package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"biglittle/internal/core"
)

// Wire messages for the coordinator's HTTP JSON API. Every endpoint is
// plain JSON over POST/GET so a worker can be curl; the status-code
// contract is the interesting part:
//
//	POST /fleet/jobs          202 queued/done | 400 bad spec | 429 full (Retry-After) | 503 draining
//	GET  /fleet/jobs/{id}     200 status (?wait=5s long-polls for terminal) | 404
//	POST /fleet/lease         200 grant | 204 no work | 400 bad body | 503 draining
//	POST /fleet/renew         204 | 400 bad body | 410 lease gone
//	POST /fleet/complete      204 (idempotent) | 400 bad body | 404 unknown job | 409 not leased
//	POST /fleet/fail          204 | 400 bad body | 404 unknown job | 409 not leased
//	GET  /fleet/stats         200 queue/lease/worker snapshot
//	GET  /healthz             200 while the process lives; X-Biglittle-Build names the build
//	GET  /readyz              200 serving | 503 draining
type submitRequest struct {
	Spec JobSpec `json:"spec"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	// WaitMs long-polls for work up to this long before 204.
	WaitMs int64 `json:"wait_ms"`
}

type renewRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

type completeRequest struct {
	Lease  string      `json:"lease"`
	Job    string      `json:"job"`
	Worker string      `json:"worker"`
	Result core.Result `json:"result"`
}

type failRequest struct {
	Lease  string `json:"lease"`
	Job    string `json:"job"`
	Worker string `json:"worker"`
	Error  string `json:"error"`
}

// Mount registers the coordinator API on mux. The caller owns the server
// lifecycle; blserve mounts this next to its observability routes.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/jobs", c.handleSubmit)
	mux.HandleFunc("GET /fleet/jobs/{id}", c.handleJob)
	mux.HandleFunc("POST /fleet/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/renew", c.handleRenew)
	mux.HandleFunc("POST /fleet/complete", c.handleComplete)
	mux.HandleFunc("POST /fleet/fail", c.handleFail)
	mux.HandleFunc("GET /fleet/stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decode(w, r, &req) {
		return
	}
	rep, err := c.Submit(req.Spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, http.StatusAccepted, rep)
	}
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	wait := time.Duration(0)
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "bad wait duration: "+err.Error(), http.StatusBadRequest)
			return
		}
		wait = d
	}
	st, err := c.Job(r.Context(), r.PathValue("id"), wait)
	if errors.Is(err, ErrUnknownJob) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decode(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	// Cap server-side long-poll so a dead client cannot pin a handler.
	if wait > time.Minute {
		wait = time.Minute
	}
	g, err := c.Lease(r.Context(), req.Worker, wait)
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case err != nil:
		// Client went away mid-poll; nothing to send.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case g == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, g)
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.Renew(req.Lease, req.Worker); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.Complete(req.Lease, req.Job, req.Worker, req.Result); err != nil {
		http.Error(w, err.Error(), publishStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req failRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.Fail(req.Lease, req.Job, req.Worker, req.Error); err != nil {
		http.Error(w, err.Error(), publishStatus(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// publishStatus maps a refused completion or failure to its status code.
func publishStatus(err error) int {
	if errors.Is(err, ErrNotLeased) {
		return http.StatusConflict
	}
	return http.StatusNotFound
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(buildHeader, build())
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}
