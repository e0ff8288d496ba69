package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

func rig() (*event.Engine, *sched.System) {
	eng := event.New()
	sys := sched.New(eng, platform.Exynos5422(), sched.DefaultConfig())
	sys.Start()
	return eng, sys
}

func TestCapturesRunningTasks(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 100*event.Millisecond)
	task := sys.NewTask("worker", 1)
	task.Pin(2)
	sys.Push(task, 1e12)
	eng.Run(100 * event.Millisecond)

	if len(r.Samples) == 0 {
		t.Fatal("no samples")
	}
	seen := false
	for _, s := range r.Samples {
		if s.TaskOnCore[2] == task.ID {
			seen = true
		}
		for c, id := range s.TaskOnCore {
			if c != 2 && id != -1 {
				t.Fatalf("unexpected occupant %d on core %d", id, c)
			}
		}
		if len(s.ClusterMHz) != 2 {
			t.Fatalf("cluster freqs %v", s.ClusterMHz)
		}
	}
	if !seen {
		t.Fatal("pinned worker never observed on its core")
	}
}

func TestWindowRespected(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 50*event.Millisecond, 60*event.Millisecond)
	eng.Run(200 * event.Millisecond)
	if len(r.Samples) == 0 || len(r.Samples) > 11 {
		t.Fatalf("%d samples for a 10ms window at 1ms ticks", len(r.Samples))
	}
	for _, s := range r.Samples {
		if s.At < 50*event.Millisecond || s.At >= 60*event.Millisecond {
			t.Fatalf("sample at %v outside window", s.At)
		}
	}
}

func TestRenderContainsTimelineAndLegend(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 50*event.Millisecond)
	task := sys.NewTask("render.thread", 1)
	task.Pin(0)
	var gen func(now event.Time)
	gen = func(now event.Time) {
		sys.Push(task, 3e6)
		eng.At(now+10*event.Millisecond, gen)
	}
	gen(0)
	eng.Run(50 * event.Millisecond)

	out := r.Render(80)
	if !strings.Contains(out, "cpu0") || !strings.Contains(out, "cpu7") {
		t.Fatalf("missing core rows:\n%s", out)
	}
	if !strings.Contains(out, "a=render.thread") {
		t.Fatalf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "little cluster MHz") || !strings.Contains(out, "big    cluster MHz") {
		t.Fatalf("missing frequency summary:\n%s", out)
	}
	// cpu0's row must contain the task glyph.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cpu0") && !strings.Contains(line, "a") {
			t.Fatalf("cpu0 row has no activity: %q", line)
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	_, sys := rig()
	r := Attach(sys, 0, 0)
	if out := r.Render(0); !strings.Contains(out, "no samples") {
		t.Fatalf("empty render: %q", out)
	}
}

// TestRenderBreaksTiesByLowestID pins a column whose stride holds two tasks
// equally often: every render shows the lower task ID's glyph, whatever
// order the per-column counts are visited in.
func TestRenderBreaksTiesByLowestID(t *testing.T) {
	_, sys := rig()
	r := Attach(sys, 0, 0)
	r.names = map[int]string{3: "low", 7: "high"}
	for i, id := range []int{7, 3} {
		occ := make([]int, len(sys.SoC.Cores))
		for c := range occ {
			occ[c] = -1
		}
		occ[0] = id
		r.Samples = append(r.Samples, Sample{
			At:         event.Time(i) * event.Millisecond,
			TaskOnCore: occ,
			ClusterMHz: make([]int, len(sys.SoC.Clusters)),
			RunQueue:   make([]int, len(occ)),
		})
	}
	for i := 0; i < 64; i++ {
		out := r.Render(1) // one column spans both ticks
		if !strings.Contains(out, "cpu0 little |a|\n") {
			t.Fatalf("render %d: tied column does not show task 3's glyph 'a':\n%s", i, out)
		}
	}
}

func TestRenderDownsamples(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, event.Second)
	eng.Run(event.Second)
	out := r.Render(100)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cpu0") {
			inner := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len(inner) > 110 {
				t.Fatalf("row not downsampled: %d columns", len(inner))
			}
		}
	}
}

func TestResidency(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 200*event.Millisecond)
	little := sys.NewTask("on.little", 1)
	little.Pin(1)
	big := sys.NewTask("on.big", 1)
	big.Pin(5)
	sys.Push(little, 1e12)
	sys.Push(big, 1e12)
	eng.Run(200 * event.Millisecond)

	res := r.Residency()
	if res["on.little"].Run[platform.Little] < 0.99 {
		t.Fatalf("little residency %v", res["on.little"])
	}
	if res["on.big"].Run[platform.Big] < 0.99 {
		t.Fatalf("big residency %v", res["on.big"])
	}
}

func TestResidencyReportsWait(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 200*event.Millisecond)
	// Two long-running tasks pinned to one core: at every tick one runs and
	// the other waits, so each should show roughly a 50% wait share.
	a := sys.NewTask("rq.a", 1)
	a.Pin(1)
	b := sys.NewTask("rq.b", 1)
	b.Pin(1)
	sys.Push(a, 1e12)
	sys.Push(b, 1e12)
	eng.Run(200 * event.Millisecond)

	res := r.Residency()
	for _, name := range []string{"rq.a", "rq.b"} {
		tr := res[name]
		if tr.RunTicks == 0 || tr.WaitTicks == 0 {
			t.Fatalf("%s: run %d wait %d ticks, want both non-zero", name, tr.RunTicks, tr.WaitTicks)
		}
		if share := tr.WaitShare(); share < 0.3 || share > 0.7 {
			t.Fatalf("%s: wait share %.2f, want ~0.5", name, share)
		}
	}
	// A solo task never waits.
	if solo := res["on.little"]; solo.WaitTicks != 0 {
		t.Fatalf("absent task reported waiting: %+v", solo)
	}
}

// TestTickSubscribersRunInOrder pins the OnTick contract the observers rely
// on: every subscriber runs at every tick, in the order it subscribed, so a
// subscriber sees the recorder's sample for a tick only if it subscribed
// after the recorder.
func TestTickSubscribersRunInOrder(t *testing.T) {
	eng, sys := rig()
	var got []string
	var r *Recorder
	sys.OnTick(func(event.Time) { got = append(got, fmt.Sprintf("before:%d", len(r.Samples))) })
	r = Attach(sys, 0, 0)
	sys.OnTick(func(event.Time) { got = append(got, fmt.Sprintf("after:%d", len(r.Samples))) })
	eng.Run(3 * event.Millisecond)

	want := []string{"before:0", "after:1", "before:1", "after:2", "before:2", "after:3"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tick subscribers ran as %v, want %v", got, want)
	}
}

func TestChromeTrace(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 50*event.Millisecond)
	task := sys.NewTask("chrome.task", 1)
	task.Pin(1)
	sys.Push(task, 1e12)
	eng.Run(50 * event.Millisecond)
	data, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, `"chrome.task"`) || !strings.Contains(out, `"ph":"X"`) {
		t.Fatalf("chrome trace missing slices: %s", out[:min(200, len(out))])
	}
	if !strings.Contains(out, `"tid":1`) {
		t.Fatal("core track missing")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestMaxSamplesBoundsMemory(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 0)
	r.MaxSamples = 100
	eng.Run(event.Second) // 1000 ticks at 1 ms

	if len(r.Samples) > 100 {
		t.Fatalf("recorder holds %d samples, cap 100", len(r.Samples))
	}
	if r.Dropped == 0 {
		t.Fatal("no samples dropped over a 10x-cap run")
	}
	if len(r.Samples)+r.Dropped < 990 {
		t.Fatalf("kept %d + dropped %d should account for ~1000 ticks",
			len(r.Samples), r.Dropped)
	}
	// The newest samples are the ones retained.
	last := r.Samples[len(r.Samples)-1].At
	if last < 990*event.Millisecond {
		t.Fatalf("last kept sample at %v, want near 1 s", last)
	}
	for i := 1; i < len(r.Samples); i++ {
		if r.Samples[i].At <= r.Samples[i-1].At {
			t.Fatal("samples out of order after ring drops")
		}
	}
}

func TestUnboundedWhenNegative(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 0)
	r.MaxSamples = -1
	eng.Run(500 * event.Millisecond)
	if r.Dropped != 0 || len(r.Samples) < 499 {
		t.Fatalf("unbounded recorder dropped %d, kept %d", r.Dropped, len(r.Samples))
	}
}

func TestCapturesRunQueueDepth(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 50*event.Millisecond)
	for i := 0; i < 3; i++ {
		task := sys.NewTask("rq.task", 1)
		task.Pin(2)
		sys.Push(task, 1e12)
	}
	eng.Run(50 * event.Millisecond)

	deep := false
	for _, s := range r.Samples {
		if len(s.RunQueue) != len(sys.SoC.Cores) {
			t.Fatalf("RunQueue has %d entries", len(s.RunQueue))
		}
		if s.RunQueue[2] >= 3 {
			deep = true
		}
	}
	if !deep {
		t.Fatal("3 pinned tasks never observed on core 2's run queue")
	}
}

// chromeDoc mirrors the trace-event JSON for round-trip assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   *float64       `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  *int           `json:"pid"`
		TID  *int           `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceSchemaRoundTrip(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 100*event.Millisecond)
	tel := telemetry.NewCollector()
	sys.Tel = tel
	task := sys.NewTask("schema.task", 1)
	task.Pin(1)
	sys.Push(task, 1e12)
	eng.Run(100 * event.Millisecond)

	data, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	lastTs := map[[2]int]float64{}
	phs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Ts == nil || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event missing schema fields: %+v", ev)
		}
		phs[ev.Ph]++
		if ev.Ph == "i" && ev.S == "" {
			t.Fatalf("instant event without scope: %+v", ev)
		}
		if ev.Ph == "C" && len(ev.Args) == 0 {
			t.Fatalf("counter event without args: %+v", ev)
		}
		// Timestamps must be monotonic within each (ph-class, track): slices
		// per core track, counters per counter track.
		if ev.Ph == "X" || ev.Ph == "C" {
			key := [2]int{*ev.TID, map[string]int{"X": 0, "C": 1}[ev.Ph]}
			if prev, ok := lastTs[key]; ok && *ev.Ts < prev {
				t.Fatalf("track tid=%d ph=%s goes backwards: %v after %v",
					*ev.TID, ev.Ph, *ev.Ts, prev)
			}
			lastTs[key] = *ev.Ts
		}
	}
	if phs["X"] == 0 {
		t.Fatal("no complete slices")
	}
	if phs["C"] == 0 {
		t.Fatal("no counter events (cluster MHz / runnable tasks)")
	}
}

func TestChromeTraceCounterTracks(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 100*event.Millisecond)
	task := sys.NewTask("ctr.task", 1)
	task.Pin(5)
	sys.Push(task, 1e12)
	eng.Run(100 * event.Millisecond)

	data, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{`"little MHz"`, `"big MHz"`, `"runnable tasks"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing counter track %s", want)
		}
	}
}

func TestChromeTraceTelemetryInstants(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 100*event.Millisecond)
	tel := telemetry.NewCollector()
	sys.Tel = tel
	eng.Run(100 * event.Millisecond)

	// Synthesize telemetry inside and outside the recorded window; only the
	// in-window events may appear.
	tel.Emit(telemetry.Event{At: 50 * event.Millisecond, Kind: telemetry.KindMigration,
		Task: 1, TaskName: "mover", FromCore: 0, Core: 4, Cluster: -1,
		Reason: telemetry.ReasonUpThreshold})
	tel.Emit(telemetry.Event{At: 60 * event.Millisecond, Kind: telemetry.KindBoost,
		Task: 1, TaskName: "mover", FromCore: -1, Core: 4, Cluster: -1, Value: 900})
	tel.Emit(telemetry.Event{At: 70 * event.Millisecond, Kind: telemetry.KindPower,
		Task: -1, Core: -1, FromCore: -1, Cluster: -1, Value: 1234.5})
	tel.Emit(telemetry.Event{At: 5 * event.Second, Kind: telemetry.KindMigration,
		Task: 2, TaskName: "outside", FromCore: 1, Core: 5, Cluster: -1,
		Reason: telemetry.ReasonUpThreshold})

	data, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, `"migrate mover (up-threshold)"`) {
		t.Fatalf("migration instant missing:\n%s", out)
	}
	if !strings.Contains(out, `"boost mover"`) {
		t.Fatal("boost instant missing")
	}
	if !strings.Contains(out, `"power mW"`) {
		t.Fatal("power counter track missing")
	}
	if strings.Contains(out, "outside") {
		t.Fatal("event beyond the recorded window leaked into the trace")
	}
}

func TestChromeTraceXrayFlowEvents(t *testing.T) {
	eng, sys := rig()
	r := Attach(sys, 0, 100*event.Millisecond)
	x := xray.New()
	sys.Xray = x
	eng.Run(100 * event.Millisecond)

	// Synthesize a wake -> migration -> freq chain inside the window, plus a
	// migration outside it; only in-window edges become flow pairs.
	x.Wake(10*event.Millisecond, 1, "mover", 0, 0, "woke on cpu0", "", nil, nil)
	x.Migration(40*event.Millisecond, 1, "mover", 0, 4, 1, "cpu0 -> cpu4", "up-threshold", nil, nil)
	x.FreqStep(60*event.Millisecond, 1, 1000, 1600, "cluster1 1000 -> 1600 MHz", "scale-up", nil, nil)
	x.Migration(5*event.Second, 1, "mover", 4, 0, 0, "outside-window", "down-threshold", nil, nil)

	data, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "xray" {
			continue
		}
		names[ev.Name] = true
		switch ev.Ph {
		case "s":
			starts++
		case "f":
			finishes++
			if ev.BP != "e" {
				t.Errorf("flow finish without bp=e: %+v", ev)
			}
		}
		if ev.ID == 0 {
			t.Errorf("flow event without binding id: %+v", ev)
		}
		if strings.Contains(ev.Name, "outside") {
			t.Errorf("out-of-window span leaked: %+v", ev)
		}
	}
	// Two in-window edges: wake->migration and migration->freq.
	if starts != 2 || finishes != 2 {
		t.Fatalf("flow pairs = %d starts / %d finishes, want 2/2:\n%s", starts, finishes, data)
	}
	if !names["xray wake->migration"] || !names["xray migration->freq"] {
		t.Fatalf("flow edge names missing, got %v", names)
	}
}
