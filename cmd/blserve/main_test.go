package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"biglittle"
	"biglittle/internal/cli"
)

// testServer builds a server around a short live session advanced far enough
// to have decisions in the flight recorder, with the full route table —
// fleet coordinator included, sharing the session's telemetry collector as
// main does.
func testServer(t *testing.T) (*server, http.Handler) {
	t.Helper()
	phases, err := cli.ParsePhases("bbench:2s")
	if err != nil {
		t.Fatal(err)
	}
	cfg := biglittle.NewSession(phases...)
	tel := biglittle.NewTelemetry()
	prof := biglittle.NewProfiler()
	xr := biglittle.NewXray()
	cfg.Telemetry = tel
	cfg.Profiler = prof
	cfg.Xray = xr
	s := &server{live: biglittle.NewLiveSession(cfg), tel: tel, prof: prof, xr: xr}
	s.live.Advance(1 * biglittle.Second)

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/tasks/", s.handleTask)
	mux.HandleFunc("/xray", s.handleXray)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	coord := biglittle.NewFleetCoordinator(biglittle.FleetOptions{Tel: tel})
	t.Cleanup(coord.Close)
	coord.Mount(mux)
	return s, mux
}

// coordinatorOnlyServer is testServer for `-phases none`: no live session.
func coordinatorOnlyServer(t *testing.T) http.Handler {
	t.Helper()
	tel := biglittle.NewTelemetry()
	s := &server{tel: tel}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/tasks/", s.handleTask)
	mux.HandleFunc("/xray", s.handleXray)
	mux.HandleFunc("/diff", s.handleDiff)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	coord := biglittle.NewFleetCoordinator(biglittle.FleetOptions{Tel: tel})
	t.Cleanup(coord.Close)
	coord.Mount(mux)
	return mux
}

// checkpointServer is testServer for -app mode: a checkpointable single-app
// run advanced mid-way, with the same route table.
func checkpointServer(t *testing.T) (*server, http.Handler) {
	t.Helper()
	app, err := biglittle.AppByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = 2 * biglittle.Second
	sim, err := biglittle.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := biglittle.NewTelemetry()
	s := &server{sim: sim, simEnd: cfg.Duration, tel: tel}
	sim.RunTo(1 * biglittle.Second)

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	coord := biglittle.NewFleetCoordinator(biglittle.FleetOptions{Tel: tel})
	t.Cleanup(coord.Close)
	coord.Mount(mux)
	return s, mux
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestXrayEndpoint(t *testing.T) {
	_, h := testServer(t)
	rec := get(t, h, "/xray")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /xray = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	// The served dump must round-trip through the same parser blxray uses.
	d, err := biglittle.ParseXrayDump(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("ParseXrayDump on /xray body: %v", err)
	}
	if len(d.Spans) == 0 {
		t.Fatal("1s of simulated session recorded no decisions")
	}
}

func TestDiffEndpointIdentical(t *testing.T) {
	s, h := testServer(t)
	dump, err := s.xr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]json.RawMessage{"a": dump, "b": dump})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diff", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /diff = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var resp diffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if !resp.Identical || resp.Index != -1 {
		t.Fatalf("self-diff not identical: %+v", resp)
	}
	if resp.SpansA == 0 || resp.SpansA != resp.SpansB {
		t.Fatalf("span counts wrong: %+v", resp)
	}
}

func TestDiffEndpointDivergent(t *testing.T) {
	_, h := testServer(t)
	// Two fresh single-run dumps differing only in the HMP up-threshold.
	dump := func(up int) json.RawMessage {
		app, err := biglittle.AppByName("bbench")
		if err != nil {
			t.Fatal(err)
		}
		cfg := biglittle.DefaultConfig(app)
		cfg.Duration = 1 * biglittle.Second
		cfg.Sched.UpThreshold = up
		xr := biglittle.NewXray()
		xr.MaxSpans = -1
		cfg.Xray = xr
		biglittle.Run(cfg)
		data, err := xr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	body, _ := json.Marshal(map[string]json.RawMessage{"a": dump(700), "b": dump(350)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diff", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /diff = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	var resp diffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Identical || resp.Index < 0 {
		t.Fatalf("threshold change not detected: %+v", resp)
	}
	if resp.A == nil || resp.B == nil {
		t.Fatalf("divergent pair missing from response: %+v", resp)
	}
	if resp.A.SameDecision(*resp.B) {
		t.Fatal("reported spans do not actually diverge")
	}
	found := false
	for _, d := range resp.Provenance {
		if strings.Contains(d.Path, "up_threshold") {
			found = true
		}
	}
	if !found {
		t.Fatalf("provenance does not surface the changed threshold: %+v", resp.Provenance)
	}
}

func TestDiffEndpointErrors(t *testing.T) {
	_, h := testServer(t)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diff", strings.NewReader(body)))
		return rec
	}
	if rec := get(t, h, "/diff"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /diff = %d, want 405", rec.Code)
	}
	if rec := post("not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", rec.Code)
	}
	if rec := post(`{"a": {"spans": []}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing side = %d, want 400", rec.Code)
	}
	if rec := post(`{"a": 42, "b": 42}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable dump = %d, want 400", rec.Code)
	}
}

func TestIndexListsDiff(t *testing.T) {
	_, h := testServer(t)
	rec := get(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d, want 200", rec.Code)
	}
	for _, want := range []string{"/xray", "/diff", "/metrics", "/fleet/stats", "/readyz"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("index does not list %s:\n%s", want, rec.Body)
		}
	}
}

// TestCheckpointEndpoint pins the live-checkpoint contract: /checkpoint on a
// -app run serves a versioned snapshot blob that decodes, resumes, and runs
// out byte-identical to the run it was captured from.
func TestCheckpointEndpoint(t *testing.T) {
	s, h := checkpointServer(t)
	rec := get(t, h, "/checkpoint")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /checkpoint = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q, want application/octet-stream", ct)
	}
	if at := rec.Header().Get("X-Sim-Time-Ns"); at == "" || at == "0" {
		t.Fatalf("X-Sim-Time-Ns = %q, want the capture time", at)
	}

	st, err := biglittle.DecodeSnapshot(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("served checkpoint does not decode: %v", err)
	}
	app, err := biglittle.AppByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := biglittle.DefaultConfig(app)
	cfg.Duration = 2 * biglittle.Second
	resumed, err := biglittle.Resume(cfg, st)
	if err != nil {
		t.Fatalf("served checkpoint does not resume: %v", err)
	}
	resumed.RunTo(cfg.Duration)
	got := resumed.Finish()
	if want := biglittle.Run(cfg); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed checkpoint diverges from the uninterrupted run")
	}

	// The server's own run, continued in place, is undisturbed by having
	// been checkpointed.
	s.mu.Lock()
	s.sim.RunTo(cfg.Duration)
	own := s.sim.Finish()
	s.mu.Unlock()
	if !reflect.DeepEqual(own, got) {
		t.Fatal("checkpointing perturbed the live run")
	}
}

// TestCheckpointModeRoutes pins /checkpoint's error contract in the other
// two modes and the session routes' behavior in -app mode.
func TestCheckpointModeRoutes(t *testing.T) {
	_, session := testServer(t)
	rec := get(t, session, "/checkpoint")
	if rec.Code != http.StatusConflict {
		t.Fatalf("GET /checkpoint on a session = %d, want 409", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "observers") {
		t.Fatalf("session checkpoint error does not explain the observer exclusion: %s", rec.Body)
	}

	coord := coordinatorOnlyServer(t)
	if rec := get(t, coord, "/checkpoint"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /checkpoint with no simulation = %d, want 404", rec.Code)
	}

	// In -app mode the observability routes explain themselves instead of
	// panicking on the nil session.
	_, appMode := checkpointServer(t)
	rec = get(t, appMode, "/snapshot")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "/checkpoint") {
		t.Fatalf("GET /snapshot in -app mode = %d (%s), want 404 pointing at /checkpoint", rec.Code, rec.Body)
	}
	if rec := get(t, appMode, "/"); !strings.Contains(rec.Body.String(), "checkpointable") {
		t.Fatalf("index does not announce checkpointable mode:\n%s", rec.Body)
	}
}

// TestFleetMounted pins the coordinator routes next to the observability
// ones, and that the shared collector surfaces fleet metrics in /metrics.
func TestFleetMounted(t *testing.T) {
	_, h := testServer(t)
	for path, want := range map[string]int{
		"/healthz":     http.StatusOK,
		"/readyz":      http.StatusOK,
		"/fleet/stats": http.StatusOK,
	} {
		if rec := get(t, h, path); rec.Code != want {
			t.Fatalf("GET %s = %d, want %d", path, rec.Code, want)
		}
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	for _, metric := range []string{
		"biglittle_fleet_jobs_failed_total 0",
		"biglittle_fleet_queue_depth 0",
		"biglittle_sim_seconds", // session metrics still present alongside
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics missing %q:\n%.2000s", metric, body)
		}
	}
}

// TestCoordinatorOnlyMode pins -phases none behavior: fleet and metrics
// routes serve, session routes explain there is no session instead of
// panicking on a nil live pointer.
func TestCoordinatorOnlyMode(t *testing.T) {
	h := coordinatorOnlyServer(t)
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", rec.Code)
	}
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "biglittle_fleet_jobs_failed_total 0") {
		t.Fatalf("/metrics missing fleet counters:\n%.2000s", rec.Body.String())
	}
	for _, path := range []string{"/snapshot", "/xray", "/tasks/render"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s without a session = %d, want 404", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "no live session") {
			t.Fatalf("GET %s error does not explain coordinator-only mode: %s", path, rec.Body)
		}
	}
	if rec := get(t, h, "/"); !strings.Contains(rec.Body.String(), "fleet coordinator") {
		t.Fatalf("index does not announce coordinator-only mode:\n%s", rec.Body)
	}
}
