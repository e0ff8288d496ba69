package lab

import (
	"bytes"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/telemetry"
	"biglittle/internal/workload"
)

// statCounters is the contract between lab.Stats and the telemetry
// registry: every Stats field mirrors into exactly this counter.
var statCounters = map[string]string{
	"Jobs":          "lab_jobs",
	"Hits":          "lab_cache_hits",
	"Misses":        "lab_cache_misses",
	"Simulated":     "lab_simulations",
	"Stored":        "lab_stored",
	"Retries":       "lab_retries",
	"Failures":      "lab_failures",
	"Remote":        "lab_remote",
	"RemoteErrors":  "lab_remote_errors",
	"Audited":       "lab_audited",
	"AuditFailures": "lab_audit_failures",
	"Forks":         "lab_forks",
	"PrefixHits":    "lab_prefix_hits",
	"PrefixMisses":  "lab_prefix_misses",
	"MemoHits":      "lab_memo_hits",
	"MemoMisses":    "lab_memo_misses",
}

// TestStatsCountersMirrored pins two things: every field of Stats has a
// registered telemetry counter (adding a Stats field without wiring its
// counter fails here), and after exercising the hit, miss, store, retry,
// failure, audit and memo paths every counter equals its Stats field
// exactly.
func TestStatsCountersMirrored(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		if _, ok := statCounters[st.Field(i).Name]; !ok {
			t.Errorf("Stats field %s has no telemetry counter mapping", st.Field(i).Name)
		}
	}

	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewCollector()
	r := &Runner{Workers: 2, Cache: cache, Tel: tel, Check: true}

	cfg := testConfig(t)
	// Cold run: miss + simulated + audited + stored. Warm run: hit + audited.
	if _, err := runConfigs(r, []core.Config{cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := runConfigs(r, []core.Config{cfg}); err != nil {
		t.Fatal(err)
	}
	// Panicking job: one retry, then failure.
	pan := core.DefaultConfig(apps.App{Name: "panicky", Desc: "always panics",
		Build: func(*workload.Ctx) { panic("boom") }})
	pan.Duration = 100 * event.Millisecond
	if _, err := r.Run(Job{Config: pan}); err == nil {
		t.Fatal("panicking job should fail")
	}
	// Derived result: computed once, then read back.
	for i := 0; i < 2; i++ {
		Memo(r, "square", 7, func() int { return 49 })
	}

	s := r.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Simulated == 0 || s.Stored == 0 ||
		s.Retries == 0 || s.Failures == 0 || s.Audited == 0 ||
		s.MemoHits == 0 || s.MemoMisses == 0 {
		t.Fatalf("test did not exercise every path: %+v", s)
	}
	sv := reflect.ValueOf(s)
	for field, counter := range statCounters {
		want := sv.FieldByName(field).Int()
		if got := tel.Counter(counter).Value(); got != want {
			t.Errorf("counter %s = %d, want %d (Stats.%s)", counter, got, want, field)
		}
	}
}

// TestRacePrometheusExportDuringSweep runs a Prometheus exporter in a loop
// while a parallel sweep updates the shared collector's lab counters — the
// exact shape blserve's /metrics handler and a long sweep produce. Under
// -race this pins the registry's goroutine-safety.
func TestRacePrometheusExportDuringSweep(t *testing.T) {
	tel := telemetry.NewCollector()
	r := &Runner{Workers: 8, Tel: tel}

	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := testConfig(t)
		cfg.Seed = int64(i + 1)
		cfg.Duration = 20 * event.Millisecond
		jobs[i] = Job{Config: cfg}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tel.WritePrometheus(io.Discard)
			}
		}
	}()

	if _, err := r.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if got := tel.Counter("lab_jobs").Value(); got != n {
		t.Fatalf("lab_jobs counter = %d, want %d", got, n)
	}
	var out strings.Builder
	if err := tel.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "biglittle_lab_simulations_total 32") {
		t.Fatalf("final export missing lab_simulations:\n%s", out.String())
	}
}

// TestSweepProgressLogging drives a >=100-job sweep with a structured
// logger attached and checks the observability contract: per-job Debug
// transitions, periodic Info progress lines with throughput and ETA, and a
// final summary whose tallies match Runner.Stats.
func TestSweepProgressLogging(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	r := &Runner{Workers: 4, Log: log}

	const n = 100
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := testConfig(t)
		cfg.Seed = int64(i + 1)
		cfg.Duration = 10 * event.Millisecond
		jobs[i] = Job{Config: cfg}
	}
	if _, err := r.RunAll(jobs); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, `msg="sweep start"`) || !strings.Contains(out, "jobs=100") {
		t.Errorf("missing sweep start line:\n%s", firstLines(out, 3))
	}
	progressLines := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `msg="sweep progress"`) {
			progressLines++
			if !strings.Contains(line, "eta=") || !strings.Contains(line, "jobs_per_sec=") {
				t.Errorf("progress line missing eta/throughput: %s", line)
			}
		}
	}
	// Every 10th completion of 100 jobs logs: 10 lines (the last doubles as
	// completed=100).
	if progressLines != 10 {
		t.Errorf("progress lines = %d, want 10", progressLines)
	}
	if !strings.Contains(out, "completed=100 total=100") {
		t.Error("no final progress line with completed=100 total=100")
	}
	if strings.Count(out, `msg=simulated`) != n {
		t.Errorf("simulated debug lines = %d, want %d", strings.Count(out, `msg=simulated`), n)
	}
	s := r.Stats()
	if s.Simulated != n {
		t.Fatalf("stats = %+v, want %d simulated", s, n)
	}
	want := "msg=\"sweep complete\" jobs=100"
	if !strings.Contains(out, want) || !strings.Contains(out, "simulated=100") ||
		!strings.Contains(out, "failures=0") {
		t.Errorf("summary line does not match stats %+v:\n%s", s, lastLines(out, 3))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
