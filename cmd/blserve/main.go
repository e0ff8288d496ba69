// Command blserve drives a long-running multi-app session and serves its
// observability surface over HTTP while the simulation advances: Prometheus
// metrics from the telemetry registry and the per-task profiler, JSON
// attribution snapshots, per-task drill-down, and Go pprof. Simulated time
// is paced against the wall clock (-speed) so dashboards see a live system
// rather than an instant replay.
//
// blserve is also the fleet coordinator: it mounts the distributed-lab job
// API (/fleet/...) next to the observability routes, so blworker processes
// can lease simulation jobs from it and blsweep/blreport/blexplore can
// submit sweeps with -remote. `-phases none` runs a coordinator-only server with
// no live session.
//
// With -app, blserve instead drives a checkpointable single-app run: the
// whole simulation state is captured on demand at /checkpoint as a
// versioned snapshot blob that Resume continues byte-identically (DESIGN.md
// §9). Checkpointable runs carry no observers — the snapshot contract
// excludes them — so the session observability routes 404 in this mode.
//
// Usage:
//
//	blserve -phases browser:20s,video_player:20s -speed 4
//	blserve -phases none                      # fleet coordinator only
//	blserve -app fifa15 -app-duration 2m      # checkpointable live run
//	curl -o run.blsnap localhost:8377/checkpoint
//	curl localhost:8377/metrics        # Prometheus text format
//	curl localhost:8377/snapshot       # JSON attribution tables
//	curl localhost:8377/tasks/render   # one task's attribution row
//	curl localhost:8377/fleet/stats    # fleet queue/lease/worker snapshot
//	curl -s localhost:8377/xray | blxray ls   # causal decision flight recorder
//
// SIGINT drains the fleet (stops granting leases, waits for in-flight jobs,
// /readyz flips to 503), stops the simulation, shuts the server down, and
// prints a final telemetry and attribution summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"biglittle"
	"biglittle/internal/cli"
)

// step is how far simulated time advances per scheduler turn of the sim
// loop; HTTP readers see state at most one step stale.
const step = 100 * biglittle.Millisecond

// server owns the live simulation and serializes its advancement against
// HTTP reads. Exactly one of live/sim is set outside coordinator-only mode:
// live is the observable multi-app session; sim is a checkpointable
// single-app run (-app), which trades the observability surface for
// snapshot capability (the snapshot contract excludes live observers) and
// serves its state at /checkpoint. With neither (-phases none), the session
// routes report that there is nothing to observe.
type server struct {
	mu     sync.Mutex
	live   *biglittle.LiveSession
	sim    *biglittle.Sim
	simEnd biglittle.Time
	tel    *biglittle.Telemetry
	prof   *biglittle.Profiler
	xr     *biglittle.Xray
	done   bool
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8377", "HTTP listen address")
		phasesArg = flag.String("phases", "browser:10s,video_player:10s",
			"comma-separated app:duration phases, or \"none\" for a fleet-coordinator-only server")
		seed    = flag.Int64("seed", 1, "workload random seed")
		speed   = flag.Float64("speed", 1.0, "simulated seconds per wall second (0 = free-run)")
		repeat  = flag.Int("repeat", 0, "times to repeat the phase list (0 = forever)")
		verbose = flag.Bool("v", false, "log fleet job transitions to stderr")

		appArg = flag.String("app", "",
			"run a checkpointable single-app simulation instead of a session: its whole state is served at /checkpoint (no telemetry/profiler/xray — the snapshot contract excludes live observers)")
		appDur = flag.Duration("app-duration", 60*time.Second, "simulated duration of the -app run")

		fleetQueue    = flag.Int("fleet-queue", 1024, "fleet: max pending jobs before 429 backpressure")
		fleetTTL      = flag.Duration("fleet-lease-ttl", 30*time.Second, "fleet: lease duration before an unrenewed job is requeued")
		fleetAttempts = flag.Int("fleet-max-attempts", 3, "fleet: lease attempts before a job is failed")
		fleetCacheDir = flag.String("fleet-cache-dir", "", "fleet: coordinator result cache directory (default: the user cache dir)")
		fleetNoCache  = flag.Bool("fleet-no-cache", false, "fleet: disable the coordinator result cache")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "fleet: max wait for in-flight jobs on shutdown")
	)
	flag.Parse()

	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	tel := biglittle.NewTelemetry()
	s := &server{tel: tel}
	switch {
	case *appArg != "":
		app, err := biglittle.AppByName(*appArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blserve:", err)
			os.Exit(1)
		}
		cfg := biglittle.DefaultConfig(app)
		cfg.Seed = *seed
		cfg.Duration = biglittle.Time(appDur.Nanoseconds())
		sim, err := biglittle.NewSim(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blserve:", err)
			os.Exit(1)
		}
		s.sim, s.simEnd = sim, cfg.Duration
	case *phasesArg != "none":
		phases, err := cli.ParsePhases(*phasesArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reps := *repeat
		if reps <= 0 {
			reps = 10_000 // "forever" at human time scales; ~a month of sim time
		}
		var all []biglittle.SessionPhase
		for i := 0; i < reps; i++ {
			all = append(all, phases...)
		}

		cfg := biglittle.NewSession(all...)
		cfg.Seed = *seed
		s.prof = biglittle.NewProfiler()
		s.xr = biglittle.NewXray()
		cfg.Telemetry = tel
		cfg.Profiler = s.prof
		cfg.Xray = s.xr
		s.live = biglittle.NewLiveSession(cfg)
	}

	var fleetCache *biglittle.LabCache
	if !*fleetNoCache {
		var err error
		fleetCache, err = biglittle.OpenLabCache(*fleetCacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blserve: fleet cache:", err)
			os.Exit(1)
		}
	}
	// The coordinator shares the session's telemetry collector, so one
	// /metrics scrape covers both the simulation and the fleet.
	coord := biglittle.NewFleetCoordinator(biglittle.FleetOptions{
		MaxQueue:    *fleetQueue,
		LeaseTTL:    *fleetTTL,
		MaxAttempts: *fleetAttempts,
		Cache:       fleetCache,
		Tel:         tel,
		Log:         logger,
	})
	defer coord.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/tasks/", s.handleTask)
	mux.HandleFunc("/xray", s.handleXray)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	coord.Mount(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: *addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()
	what := "phases " + *phasesArg
	if s.sim != nil {
		what = fmt.Sprintf("checkpointable app %s for %v", *appArg, *appDur)
	}
	fmt.Printf("blserve: listening on http://%s (%s, speed %gx, seed %d)\n",
		*addr, what, *speed, *seed)

	if s.live != nil || s.sim != nil {
		s.simLoop(ctx, *speed)
	} else {
		<-ctx.Done()
	}

	// Graceful shutdown: flip /readyz to 503, stop granting leases, and give
	// in-flight workers until -drain-timeout to publish their results before
	// the HTTP server goes away.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	if err := coord.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "blserve:", err)
	}
	cancelDrain()

	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shctx)

	fs := coord.Stats()
	fmt.Printf("\nblserve: fleet: %d jobs completed, %d failed, %d retries, %d cache hits\n",
		fs.Completed, fs.FailedJobs, fs.Retries, fs.CacheHits)
	if s.sim != nil {
		s.mu.Lock()
		now, done := s.sim.Now(), s.done
		var res biglittle.Result
		if done {
			res = s.sim.Finish()
		}
		s.mu.Unlock()
		if done {
			fmt.Printf("blserve: run complete: %s: %.1f J, avg %.0f mW, %.1f fps, big %.1f%%\n",
				res.App, res.EnergyMJ/1000, res.AvgPowerMW, res.AvgFPS, res.TLP.BigPct)
		} else {
			fmt.Printf("blserve: stopped at sim t=%v (checkpoint was available at /checkpoint)\n", now)
		}
		return
	}
	if s.live == nil {
		return
	}
	// Final report: the event-level summary and the attribution table.
	s.mu.Lock()
	now := s.live.Now()
	snap := s.prof.Snapshot(now)
	s.mu.Unlock()
	fmt.Printf("blserve: stopped at sim t=%v\n\n", now)
	fmt.Print(tel.Summary(now))
	fmt.Println()
	fmt.Print(snap.Summary())
}

// simLoop advances the session in fixed sim-time steps, sleeping between
// steps to hold the requested sim/wall ratio, until the session completes or
// ctx is cancelled.
func (s *server) simLoop(ctx context.Context, speed float64) {
	var wallStep time.Duration
	if speed > 0 {
		wallStep = time.Duration(float64(step) / speed)
	}
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		s.mu.Lock()
		var done bool
		if s.sim != nil {
			s.sim.RunTo(s.sim.Now() + step)
			done = s.sim.Now() >= s.simEnd
		} else {
			done = s.live.Advance(s.live.Now() + step)
		}
		s.done = done
		s.mu.Unlock()
		if done {
			fmt.Println("blserve: simulation complete; serving final state until interrupted")
			<-ctx.Done()
			return
		}
		if wallStep > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wallStep):
			}
		}
	}
}

// noSession replies 404 on session-observability routes when there is no
// observable session (coordinator-only mode, or a checkpointable -app run,
// which carries no observers); returns true when it handled the request.
func (s *server) noSession(w http.ResponseWriter) bool {
	if s.live != nil {
		return false
	}
	msg := "no live session: blserve is running as a fleet coordinator (-phases none)"
	if s.sim != nil {
		msg = "no live session: blserve is running a checkpointable single-app simulation (-app), which carries no observers; see /checkpoint"
	}
	http.Error(w, msg, http.StatusNotFound)
	return true
}

// handleCheckpoint serves the live run's whole-simulation snapshot in its
// versioned wire form — `curl -o run.blsnap .../checkpoint` captures a
// running experiment, and biglittle.DecodeSnapshot/Resume continue it
// elsewhere, byte-identical to never having stopped (DESIGN.md §9).
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.sim == nil {
		if s.live != nil {
			http.Error(w, "checkpointing needs a single-app run (-app <name>): sessions carry live observers (telemetry, profiler, xray), which the snapshot contract excludes", http.StatusConflict)
			return
		}
		http.Error(w, "no live simulation to checkpoint: start blserve with -app <name>", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	now := s.sim.Now()
	st, err := s.sim.Snapshot()
	var blob []byte
	if err == nil {
		blob, err = biglittle.EncodeSnapshot(st)
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, "checkpoint: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("checkpoint-%v.blsnap", now)))
	w.Header().Set("X-Sim-Time-Ns", fmt.Sprintf("%d", int64(now)))
	w.Write(blob)
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	banner := "blserve: fleet coordinator (no live session)"
	if s.sim != nil {
		s.mu.Lock()
		now, done := s.sim.Now(), s.done
		s.mu.Unlock()
		state := "running"
		if done {
			state = "complete"
		}
		banner = fmt.Sprintf("blserve: checkpointable big.LITTLE simulation (sim t=%v, %s)", now, state)
	} else if s.live != nil {
		s.mu.Lock()
		now, phase := s.live.Now(), s.live.Phase()
		if s.done {
			phase = "(complete)"
		}
		s.mu.Unlock()
		banner = fmt.Sprintf("blserve: live big.LITTLE simulation (sim t=%v, phase %q)", now, phase)
	}
	fmt.Fprintf(w, `%s

endpoints:
  /metrics        Prometheus text format (telemetry registry + per-task profiler)
  /snapshot       JSON attribution tables (run/wait by core type, residency, energy, migrations)
  /tasks/<name>   one task's attribution row
  /xray           causal decision flight recorder (last spans, JSON; pipe to blxray)
  /diff           POST {"a": <xray dump>, "b": <xray dump>}: first divergent decision
  /checkpoint     whole-simulation snapshot of a -app run (versioned wire blob; resumable)
  /fleet/jobs     POST a job spec; /fleet/jobs/{id} polls it (distributed lab)
  /fleet/stats    fleet queue/lease/worker snapshot (also: bllab fleet)
  /healthz        liveness; /readyz flips 503 while draining
  /debug/pprof/   Go pprof
`, banner)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.live == nil {
		// Coordinator-only: the shared collector still carries the fleet
		// counters and gauges.
		var b strings.Builder
		s.tel.WritePrometheus(&b)
		fmt.Fprint(w, b.String())
		return
	}
	s.mu.Lock()
	now := s.live.Now()
	phase := s.live.Phase()
	snap := s.prof.Snapshot(now)
	var b strings.Builder
	s.tel.WritePrometheus(&b)
	s.mu.Unlock()

	fmt.Fprintf(w, "# TYPE biglittle_sim_seconds gauge\nbiglittle_sim_seconds %g\n", now.Seconds())
	fmt.Fprintf(w, "# TYPE biglittle_sim_phase_info gauge\nbiglittle_sim_phase_info{phase=%q} 1\n", phase)
	fmt.Fprint(w, b.String())
	snap.WritePrometheus(w)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.noSession(w) {
		return
	}
	s.mu.Lock()
	now := s.live.Now()
	phase := s.live.Phase()
	snap := s.prof.Snapshot(now)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		SimNs   biglittle.Time            `json:"sim_ns"`
		Phase   string                    `json:"phase,omitempty"`
		Profile biglittle.ProfileSnapshot `json:"profile"`
	}{now, phase, snap})
}

// handleXray serves the causal-decision flight recorder: the most recent
// spans as a JSON dump that pipes straight into blxray, e.g.
// `curl -s .../xray | blxray explain -task br.layout -t 140ms`.
func (s *server) handleXray(w http.ResponseWriter, r *http.Request) {
	if s.noSession(w) {
		return
	}
	s.mu.Lock()
	data, err := s.xr.JSON()
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// diffRequest is /diff's POST body: two xray dumps (as served at /xray or
// written by blsim -xray), e.g. snapshots of the same session at two
// revisions or two tunings.
type diffRequest struct {
	A json.RawMessage `json:"a"`
	B json.RawMessage `json:"b"`
}

// diffResponse reports the first divergent decision between the two dumps.
type diffResponse struct {
	Identical bool `json:"identical"`
	// Index is the span-stream position of the first divergent decision
	// (-1 when identical).
	Index int `json:"index"`
	// SpansA/SpansB count each side's decisions.
	SpansA int `json:"spans_a"`
	SpansB int `json:"spans_b"`
	// A/B are the divergent pair (absent when identical or one-sided).
	A *biglittle.XraySpan `json:"a,omitempty"`
	B *biglittle.XraySpan `json:"b,omitempty"`
	// Provenance lists the inputs and candidate-table differences of the
	// divergent pair.
	Provenance []biglittle.FieldDelta `json:"provenance,omitempty"`
}

// handleDiff aligns two uploaded xray dumps and reports the first decision
// that went differently — the cross-run forensics bldiff performs, over HTTP
// so dashboards can compare a live session against a saved baseline.
func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, `diff wants POST {"a": <xray dump>, "b": <xray dump>}`, http.StatusMethodNotAllowed)
		return
	}
	var req diffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.A) == 0 || len(req.B) == 0 {
		http.Error(w, `both "a" and "b" dumps are required`, http.StatusBadRequest)
		return
	}
	da, err := biglittle.ParseXrayDump(req.A)
	if err != nil {
		http.Error(w, "dump a: "+err.Error(), http.StatusBadRequest)
		return
	}
	db, err := biglittle.ParseXrayDump(req.B)
	if err != nil {
		http.Error(w, "dump b: "+err.Error(), http.StatusBadRequest)
		return
	}
	resp := diffResponse{Index: -1, SpansA: len(da.Spans), SpansB: len(db.Spans)}
	if idx, ok := biglittle.FirstDivergentXraySpan(da.Spans, db.Spans); ok {
		resp.Index = idx
		if idx < len(da.Spans) {
			sp := da.Spans[idx]
			resp.A = &sp
		}
		if idx < len(db.Spans) {
			sp := db.Spans[idx]
			resp.B = &sp
		}
		if resp.A != nil && resp.B != nil {
			resp.Provenance = biglittle.DiffXraySpanProvenance(*resp.A, *resp.B, biglittle.DiffTolerance{})
		}
	} else {
		resp.Identical = true
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (s *server) handleTask(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/tasks/")
	if name == "" {
		http.NotFound(w, r)
		return
	}
	if s.noSession(w) {
		return
	}
	s.mu.Lock()
	snap := s.prof.Snapshot(s.live.Now())
	s.mu.Unlock()

	t, ok := snap.Task(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no task %q; see /snapshot for the full table", name), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t)
}
