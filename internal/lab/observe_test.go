package lab

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"biglittle/internal/event"
)

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
