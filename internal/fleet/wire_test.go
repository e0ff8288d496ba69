package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/thermal"
)

// The wire golden pins, byte for byte, the JobSpec JSON and the lab
// fingerprint of a few representative jobs. Either moving silently
// invalidates every cache entry and strands specs in flight between fleet
// members built from different commits. Regenerate it with
//
//	go test ./internal/fleet -run TestSpecWireGolden -golden-update
//
// only for an intentional change to the fingerprinted state, and bump the
// lab schemaVersion with it whenever a key could come to name a different
// simulation.
var updateGolden = flag.Bool("golden-update", false, "rewrite testdata/spec_wire.golden from current output")

const wireGolden = "testdata/spec_wire.golden"

type wireJob struct {
	name string
	job  lab.Job
}

// wireJobs are the golden's jobs: the default config, a named non-default
// SoC, the tiny-core SoC with every optional knob set, a sparse config that
// normalizes to the default, and a salted and a forked job (fingerprint
// only: neither travels).
func wireJobs(t *testing.T) []wireJob {
	t.Helper()
	app := func(name string) apps.App {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	def := core.DefaultConfig(app("bbench"))

	sd := core.DefaultConfig(app("fifa15"))
	sd.Duration = 8 * event.Second
	sd.Platform = "snapdragon810"
	sd.Power = power.Snapdragon810Params()

	therm := thermal.Default()
	tiny := core.DefaultConfig(app("pdf_reader"))
	tiny.Seed = 7
	tiny.Cores = platform.CoreConfig{Little: 4, Big: 4, Tiny: 2}
	tiny.Platform = "exynos5422-tiny"
	tiny.Scheduler = core.EAS
	tiny.Governor = core.Userspace
	tiny.PinnedMHz = map[int]int{1: 1400, 0: 900}
	tiny.Gov.SampleMs = 40
	tiny.Sched.UpThreshold = 600
	tiny.Thermal = &therm

	sparse := core.Config{App: app("angry_bird"), Seed: 3, Duration: 2 * event.Second}

	salted := core.DefaultConfig(app("video_player"))
	salted.Governor = core.Userspace
	salted.PinnedMHz = map[int]int{0: 1300}

	forked := core.DefaultConfig(app("encoder"))
	forked.Duration = 2 * event.Second
	variant := forked
	variant.Gov.SampleMs = 60

	return []wireJob{
		{"default", lab.Job{Config: def}},
		{"snapdragon810", lab.Job{Config: sd}},
		{"tiny-thermal-pinned", lab.Job{Config: tiny}},
		{"sparse", lab.Job{Config: sparse}},
		{"salted", lab.Job{Config: salted, Salt: "duty=0.5"}},
		{"fork", lab.Job{Config: variant, Fork: &lab.ForkSpec{Base: forked, At: 1500 * event.Millisecond}}},
	}
}

// wireLines renders the golden: a fingerprint line per job, and a spec line
// for every job that can travel.
func wireLines(t *testing.T) string {
	var b strings.Builder
	for _, c := range wireJobs(t) {
		fp, ok := lab.Fingerprint(c.job)
		if !ok {
			t.Fatalf("%s: not fingerprintable", c.name)
		}
		fmt.Fprintf(&b, "%s fingerprint %s\n", c.name, fp)
		if c.job.Fork != nil || c.job.Salt != "" {
			continue
		}
		spec, err := SpecFromJob(c.job)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s spec %s\n", c.name, data)
	}
	return b.String()
}

func TestSpecWireGolden(t *testing.T) {
	got := wireLines(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("no wire golden (regenerate with -golden-update): %v", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("wire golden mismatch at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Fatalf("wire golden mismatch: %d lines, want %d", len(gl), len(wl))
	}
}

// goldenSpecs returns the JSON of every spec line in the wire golden.
func goldenSpecs(t testing.TB) [][]byte {
	data, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if _, js, ok := strings.Cut(line, " spec "); ok {
			out = append(out, []byte(js))
		}
	}
	return out
}

// FuzzJobSpec feeds arbitrary bytes to the receiving side of the wire:
// decoding and Verify must never panic, and a spec Verify accepts must
// travel back through SpecFromJob to the same JSON, once the zero-valued
// knobs the fingerprint already treats as their defaults are resolved.
func FuzzJobSpec(f *testing.F) {
	for _, js := range goldenSpecs(f) {
		f.Add(js)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s JobSpec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		job, err := s.Verify()
		if err != nil {
			return
		}
		back, err := SpecFromJob(job)
		if err != nil {
			t.Fatalf("accepted spec cannot travel back: %v", err)
		}
		n := core.Config{Duration: s.Duration, Knobs: s.Knobs}.Normalized()
		s.Duration, s.Knobs = n.Duration, n.Knobs
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spec round trip changed the wire form:\nwant %s\ngot  %s", want, got)
		}
	})
}
