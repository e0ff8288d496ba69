package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"biglittle/internal/apps"
	"biglittle/internal/event"
	"biglittle/internal/snapshot"
	"biglittle/internal/workload"
)

// decodedSnapshot runs cfg to at and returns its snapshot after a codec
// round trip, the form a fork sweep shares between continuations.
func decodedSnapshot(t *testing.T, cfg Config, at event.Time) *snapshot.State {
	t.Helper()
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(at)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestConcurrentResumeSharesLog resumes one decoded State from several
// goroutines at once, each under its own governor tuning, and runs every
// continuation to its end. Under -race this pins that the shared workload
// log is only ever read. The fork point precedes the governor's first
// sample, so the prefix is the same under every tuning and each
// continuation must equal an uninterrupted run of its own config.
func TestConcurrentResumeSharesLog(t *testing.T) {
	base := shortCfg(apps.FIFA15())
	const fork = 15 * event.Millisecond
	if fork >= event.Time(base.Gov.SampleMs)*event.Millisecond {
		t.Fatalf("fork point %v must precede the first governor sample", fork)
	}
	st := decodedSnapshot(t, base, fork)
	if len(st.Workload.Log) == 0 {
		t.Fatal("prefix recorded no workload log")
	}
	// Spare capacity past the shared log: a continuation that appended in
	// place would race with (and leak records into) the others.
	prefix := append([]workload.Record(nil), st.Workload.Log...)
	st.Workload.Log = append(make([]workload.Record, 0, 2*len(prefix)+64), prefix...)

	tunings := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.Gov.TargetLoad = 50 },
		func(c *Config) { c.Gov.TargetLoad = 90 },
		func(c *Config) { c.Gov.DownThreshold = 20 },
	}
	cfgs := make([]Config, len(tunings))
	for i, tune := range tunings {
		cfgs[i] = base
		tune(&cfgs[i])
	}

	results := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			sim, err := Resume(cfg, st)
			if err != nil {
				errs[i] = err
				return
			}
			sim.RunTo(cfg.Duration)
			results[i] = sim.Finish()
		}(i, cfg)
	}
	wg.Wait()

	if !reflect.DeepEqual(st.Workload.Log, prefix) {
		t.Fatal("concurrent continuations changed the shared prefix log")
	}
	for _, r := range st.Workload.Log[len(prefix):cap(st.Workload.Log)] {
		if r != (workload.Record{}) {
			t.Fatal("a continuation wrote past the end of the shared log")
		}
	}
	distinct := map[float64]bool{}
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("tuning %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], Run(cfg)) {
			t.Fatalf("tuning %d: continuation diverged from the uninterrupted run", i)
		}
		distinct[results[i].EnergyMJ] = true
	}
	if len(distinct) < 2 {
		t.Fatal("every tuning used the same energy; the tunings did not move the continuation")
	}
}

// TestResumeAllocBudget pins that Resume does not copy the snapshot's
// workload log: everything Resume allocates at a 95% fork must fit in less
// than one copy of that log. A per-fork copy alone spends the whole budget.
func TestResumeAllocBudget(t *testing.T) {
	for _, app := range apps.All() {
		cfg := DefaultConfig(app)
		cfg.Duration = 8 * event.Second
		st := decodedSnapshot(t, cfg, cfg.Duration/20*19)
		budget := uint64(len(st.Workload.Log)) * uint64(unsafe.Sizeof(workload.Record{}))

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Resume(cfg, st)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Errorf("%s: Resume allocated %d B, budget %d B (%d log records): is the log copied per fork again?",
				app.Name, got, budget, len(st.Workload.Log))
		}
	}
}
