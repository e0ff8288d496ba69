package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"biglittle/internal/apps"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
)

// TestRunFromEqualsResume pins that a continuation changes no result. For
// every app at 8 s, forked at 25, 50 and 75% through the codec, RunFrom,
// which runs on a pooled random source, must equal Resume, RunTo and Finish
// under the base config and five variants, and for the base config also
// Run; with a digest recorder attached to each, the digest chains must be
// equal too. The decoded log of every snapshot is sized exactly.
func TestRunFromEqualsResume(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"ondemand", func(c *Config) { c.Governor = Ondemand }},
		{"performance", func(c *Config) { c.Governor = Performance }},
		{"target-load 50", func(c *Config) { c.Gov.TargetLoad = 50 }},
		{"thermal", func(c *Config) { p := thermal.Default(); c.Thermal = &p }},
		{"eas", func(c *Config) { c.Scheduler = EAS }},
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			base := DefaultConfig(app)
			base.Duration = 8 * event.Second
			var scratch delta.Recorder
			plain := base
			plain.Digest = &scratch
			want := Run(plain)

			for q := event.Time(1); q <= 3; q++ {
				at := base.Duration / 4 * q
				capture := base
				capture.Digest = &delta.Recorder{}
				st := decodedSnapshot(t, capture, at)
				if log := st.Workload.Log; len(log) == 0 || cap(log) != len(log) {
					t.Fatalf("fork at %v: decoded log has len %d cap %d, want equal and nonzero", at, len(log), cap(log))
				}
				for _, v := range variants {
					cfg := base
					v.mut(&cfg)
					var fromDigest, resumeDigest delta.Recorder
					cfg.Digest = &fromDigest
					got, err := RunFrom(cfg, st)
					if err != nil {
						t.Fatalf("%s at %v: RunFrom: %v", v.name, at, err)
					}
					cfg.Digest = &resumeDigest
					sim, err := Resume(cfg, st)
					if err != nil {
						t.Fatalf("%s at %v: Resume: %v", v.name, at, err)
					}
					sim.RunTo(cfg.Duration)
					if ref := sim.Finish(); !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s at %v: RunFrom differs from Resume, RunTo and Finish", v.name, at)
					}
					if a, b := fromDigest.Chain(), resumeDigest.Chain(); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s at %v: RunFrom's digest chain differs from Resume's", v.name, at)
					}
					if v.name != "base" {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("fork at %v: RunFrom of the base config differs from Run", at)
					}
					if !reflect.DeepEqual(fromDigest.Chain(), scratch.Chain()) {
						t.Fatalf("fork at %v: RunFrom's digest chain differs from Run's", at)
					}
				}
			}
		})
	}
}

// TestRunFromRecordsNothing holds a continuation's allocation flat in its
// length: two RunFroms from one 1 s prefix, run to 5 s and to 9 s, differ
// in bytes allocated by less than half of what the workload records an
// uninterrupted run logs between 5 s and 9 s take. A continuation that
// recorded its log would allocate them all, give or take one ring block.
func TestRunFromRecordsNothing(t *testing.T) {
	base := DefaultConfig(apps.BBench())
	base.Duration = 9 * event.Second
	st := decodedSnapshot(t, base, event.Second)
	logged := len(decodedSnapshot(t, base, base.Duration).Workload.Log) -
		len(decodedSnapshot(t, base, 5*event.Second).Workload.Log)
	budget := uint64(logged) * uint64(unsafe.Sizeof(workload.Record{})) / 2

	alloc := func(d event.Time) uint64 {
		cfg := base
		cfg.Duration = d
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := RunFrom(cfg, st)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(5 * event.Second) // leaves a random source on the free list for both
	short, long := alloc(5*event.Second), alloc(9*event.Second)
	if long > short && long-short >= budget {
		t.Fatalf("RunFrom to 9 s allocated %d B more than to 5 s, budget %d B (half the %d records logged in between): does the continuation record?",
			long-short, budget, logged)
	}
}
