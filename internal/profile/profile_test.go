package profile

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/telemetry"
)

const ms = event.Millisecond

func TestRunWaitAccounting(t *testing.T) {
	p := New()
	p.OnWake(0, "worker", 0)
	p.OnRun(0, "worker", 4, platform.Big, 1400, 6*ms, 10*ms)
	p.OnRun(0, "worker", 1, platform.Little, 800, 3*ms, 20*ms)
	p.OnWait(0, "worker", 2*ms)

	s := p.Snapshot(20 * ms)
	w, ok := s.Task("worker")
	if !ok {
		t.Fatal("worker missing from snapshot")
	}
	if w.BigRunNs != 6*ms || w.LittleRunNs != 3*ms || w.RunNs != 9*ms {
		t.Fatalf("run split big=%v little=%v total=%v", w.BigRunNs, w.LittleRunNs, w.RunNs)
	}
	if w.WaitNs != 2*ms {
		t.Fatalf("wait %v", w.WaitNs)
	}
	if w.SleepNs != 20*ms-9*ms-2*ms {
		t.Fatalf("sleep %v", w.SleepNs)
	}
	if w.Wakes != 1 {
		t.Fatalf("wakes %d", w.Wakes)
	}
	// Wake at 0, first run interval [4ms, 10ms) → 4 ms latency.
	if w.WakeLatencyNs != 4*ms {
		t.Fatalf("wake latency %v", w.WakeLatencyNs)
	}
	if len(w.Residency) != 2 || w.Residency[0].Type != "big" || w.Residency[0].MHz != 1400 ||
		w.Residency[1].Type != "little" || w.Residency[1].MHz != 800 {
		t.Fatalf("residency %+v", w.Residency)
	}
}

func TestMigrationAccounting(t *testing.T) {
	p := New()
	p.OnMigration(0, "mover", platform.Little, platform.Big, telemetry.ReasonUpThreshold)
	p.OnWait(0, "mover", 3*ms) // stall: runnable right after the move
	p.OnRun(0, "mover", 4, platform.Big, 1400, 5*ms, 8*ms)
	p.OnWait(0, "mover", 2*ms) // not a stall: the task has run since
	p.OnMigration(0, "mover", platform.Big, platform.Little, telemetry.ReasonDownThreshold)
	p.OnMigration(0, "mover", platform.Little, platform.Little, telemetry.ReasonBalance)

	m, _ := p.Snapshot(20 * ms).Task("mover")
	if m.Migrations != 3 || m.HMPMigrations != 2 || m.UpMigrations != 1 || m.DownMigrations != 1 {
		t.Fatalf("migrations %+v", m)
	}
	if m.MigrationStallNs != 3*ms {
		t.Fatalf("stall %v", m.MigrationStallNs)
	}
	if got := p.Snapshot(20 * ms).HMPMigrations(); got != 2 {
		t.Fatalf("snapshot HMP sum %d", got)
	}
}

func TestEnergyAttributionSplitsAndConserves(t *testing.T) {
	p := New()
	// Core 0: task a ran 6 ms, task b ran 2 ms → a gets 75% of core 0.
	p.OnRun(0, "a", 0, platform.Little, 800, 6*ms, 10*ms)
	p.OnRun(1, "b", 0, platform.Little, 800, 2*ms, 10*ms)
	// Core 4 idle; core 5 ran only b.
	p.OnRun(1, "b", 5, platform.Big, 1400, 4*ms, 10*ms)
	cores := []CorePower{{Core: 0, MW: 100}, {Core: 4, MW: 50}, {Core: 5, MW: 200}}
	p.OnPowerInterval(10*ms, 40, cores) // 1.0, 0.5, 2.0, base 0.4 mJ

	s := p.Snapshot(10 * ms)
	a, _ := s.Task("a")
	b, _ := s.Task("b")
	// a: 0.75 of core0 (0.75) + 6/12 of base (0.2) = 0.95
	if math.Abs(a.EnergyMJ-0.95) > 1e-12 {
		t.Fatalf("a energy %v", a.EnergyMJ)
	}
	// b: 0.25 of core0 + all of core5 + 6/12 of base = 0.25+2.0+0.2 = 2.45
	if math.Abs(b.EnergyMJ-2.45) > 1e-12 {
		t.Fatalf("b energy %v", b.EnergyMJ)
	}
	// Idle core 4 is unattributed.
	if math.Abs(s.UnattributedMJ-0.5) > 1e-12 {
		t.Fatalf("unattributed %v", s.UnattributedMJ)
	}
	want := (100.0 + 50 + 200 + 40) * 0.010
	if math.Abs(s.TotalEnergyMJ-want) > 1e-9 {
		t.Fatalf("total %v want %v", s.TotalEnergyMJ, want)
	}

	// A fully idle second interval goes entirely to the unattributed bucket.
	p.OnPowerInterval(10*ms, 40, cores)
	s = p.Snapshot(20 * ms)
	if math.Abs(s.UnattributedMJ-(0.5+want)) > 1e-9 {
		t.Fatalf("idle interval unattributed %v", s.UnattributedMJ)
	}
	if s.Intervals != 2 {
		t.Fatalf("intervals %d", s.Intervals)
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.OnWake(0, "x", 0)
	p.OnRun(0, "x", 0, platform.Little, 800, ms, ms)
	p.OnWait(0, "x", ms)
	p.OnMigration(0, "x", platform.Little, platform.Big, telemetry.ReasonUpThreshold)
	p.OnPowerInterval(ms, 40, nil)
	s := p.Snapshot(ms)
	if len(s.Tasks) != 0 || s.TotalEnergyMJ != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

func TestSnapshotOrderAndRendering(t *testing.T) {
	p := New()
	p.OnRun(0, "cold", 0, platform.Little, 800, ms, ms)
	p.OnRun(1, "hot", 4, platform.Big, 2000, 8*ms, 8*ms)
	p.OnPowerInterval(10*ms, 40, []CorePower{{Core: 0, MW: 10}, {Core: 4, MW: 500}})

	s := p.Snapshot(10 * ms)
	if s.Tasks[0].Name != "hot" {
		t.Fatalf("tasks not sorted by energy: %v first", s.Tasks[0].Name)
	}
	sum := s.Summary()
	for _, want := range []string{"hot", "cold", "attributed", "mJ total"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`biglittle_task_run_seconds{task="hot",type="big"} 0.008`,
		`biglittle_task_energy_millijoules{task="hot"}`,
		`biglittle_task_residency_seconds{task="cold",type="little",mhz="800"} 0.001`,
		"biglittle_profile_unattributed_millijoules",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, b.String())
		}
	}
}

// TestSnapshotOwnsItsStorage checks that a snapshot belongs to its caller:
// the next snapshot, taken after more runs, leaves it unchanged, and an
// append to one task's Residency cannot write into another's, though all
// are carved from one array.
func TestSnapshotOwnsItsStorage(t *testing.T) {
	p := New()
	for id, name := range []string{"a", "b", "c"} {
		p.OnRun(id, name, id, platform.Little, 800, ms, ms)
		p.OnRun(id, name, 4, platform.Big, 1800, ms, 2*ms)
	}
	p.OnPowerInterval(10*ms, 40, []CorePower{{Core: 0, MW: 10}, {Core: 1, MW: 20}, {Core: 4, MW: 500}})
	first := p.Snapshot(10 * ms)
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for id, name := range []string{"a", "b", "c", "d"} {
		p.OnRun(id, name, id, platform.Little, 1300, 3*ms, 12*ms)
	}
	p.OnPowerInterval(10*ms, 40, []CorePower{{Core: 0, MW: 30}, {Core: 3, MW: 30}})
	p.Snapshot(20 * ms)
	if got, _ := json.Marshal(first); string(got) != string(want) {
		t.Fatalf("a snapshot changed when the next was taken:\nwas %s\nnow %s", want, got)
	}
	for _, ts := range first.Tasks {
		_ = append(ts.Residency, ResidencySlot{Type: "tiny", MHz: 1})
	}
	if got, _ := json.Marshal(first); string(got) != string(want) {
		t.Fatalf("appending to one task's Residency overwrote another's:\nwas %s\nnow %s", want, got)
	}
}

func TestResidencyPct(t *testing.T) {
	p := New()
	p.OnRun(0, "w", 0, platform.Little, 800, 3*ms, 3*ms)
	p.OnRun(0, "w", 0, platform.Little, 1300, ms, 4*ms)
	w, _ := p.Snapshot(4 * ms).Task("w")
	pct := w.ResidencyPct("little", []int{500, 800, 1300})
	if pct[0] != 0 || math.Abs(pct[1]-75) > 1e-9 || math.Abs(pct[2]-25) > 1e-9 {
		t.Fatalf("residency pct %v", pct)
	}
}
