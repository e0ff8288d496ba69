package session

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biglittle/internal/check"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/profile"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/xray"
)

// The session golden pins what a live session reports, byte for byte: the
// Result, its rendering, and the state of every attached observer at the
// end. Regenerate it with
//
//	go test ./internal/session -run TestSessionGolden -golden-update
//
// only after an intentional model change; the diff shows what moved.
var updateGolden = flag.Bool("golden-update", false, "rewrite testdata/session.golden from current session output")

// goldenSteps are deliberately odd Advance step sizes, so phase boundaries
// fall mid-step and steps straddle them.
var goldenSteps = []event.Time{
	37 * event.Millisecond,
	113 * event.Millisecond,
	1 * event.Millisecond,
	251 * event.Millisecond,
	7 * event.Millisecond,
}

// goldenSession runs cfg with all five observers attached, advancing in
// goldenSteps, and renders everything it reports.
func goldenSession(t *testing.T, name string, cfg Config) string {
	t.Helper()
	tel, prof, xr := telemetry.NewCollector(), profile.New(), xray.New()
	aud, dig := check.New(), &delta.Recorder{}
	cfg.Telemetry, cfg.Profiler, cfg.Xray, cfg.Check, cfg.Digest = tel, prof, xr, aud, dig

	live := NewLive(cfg)
	for i := 0; !live.Done(); i++ {
		live.Advance(live.Now() + goldenSteps[i%len(goldenSteps)])
	}
	res := live.Result()
	rep := aud.Report()
	if !rep.Ok() {
		t.Fatalf("%s: auditor found violations:\n%s", name, rep)
	}
	snap, err := json.MarshalIndent(prof.Snapshot(live.Now()), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := xr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var prom strings.Builder
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "=== session %s\n", name)
	fmt.Fprintf(&b, "--- result\n%+v\n", res)
	fmt.Fprintf(&b, "--- render\n%s", Render(res))
	fmt.Fprintf(&b, "--- digest\n%016x over %d windows\n", dig.Chain().Fingerprint(), len(dig.Chain().Digests))
	fmt.Fprintf(&b, "--- xray\n%d spans, %d dropped, sha256 %x\n", xr.Len(), xr.Dropped(), sha256.Sum256(spans))
	fmt.Fprintf(&b, "--- audit\n%s", rep)
	fmt.Fprintf(&b, "--- profile\n%s\n", snap)
	fmt.Fprintf(&b, "--- telemetry\n%s", prom.String())
	return b.String()
}

func TestSessionGolden(t *testing.T) {
	therm := thermal.Default()
	hot := DefaultConfig(
		Phase{App: mustApp(t, "browser"), Duration: 3 * event.Second},
		Phase{App: mustApp(t, "eternity_warrior"), Duration: 3 * event.Second},
		Phase{App: mustApp(t, "video_player"), Duration: 3 * event.Second},
	)
	hot.Thermal = &therm

	tiny := DefaultConfig(
		Phase{App: mustApp(t, "pdf_reader"), Duration: 2 * event.Second},
		Phase{App: mustApp(t, "angry_bird"), Duration: 2 * event.Second},
	)
	tiny.Cores = platform.CoreConfig{Little: 4, Big: 4, Tiny: 2}

	got := goldenSession(t, "browser+eternity_warrior+video_player thermal", hot) +
		goldenSession(t, "pdf_reader+angry_bird T2+L4+B4", tiny)

	path := filepath.Join("testdata", "session.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no session golden (regenerate with -golden-update): %v", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("session golden mismatch at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("session golden mismatch: %d lines, want %d", len(gl), len(wl))
	}
}
