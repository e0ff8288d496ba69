package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"biglittle/internal/apps"
	"biglittle/internal/metrics"
	"biglittle/internal/snapshot"
	"biglittle/internal/workload"
)

// prefixState captures app's default 30 s run at 28.5 s, the prefix a fork
// sweep at 95% forks from.
func prefixState(t *testing.T, app apps.App) *snapshot.State {
	t.Helper()
	cfg := DefaultConfig(app)
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunTo(cfg.Duration / 20 * 19)
	st, err := sim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEncodeWritesPrefixOnce pins that Encode allocates each blob once, at
// its final length, and that the hand-written log leaves the payload what
// json.Marshal writes: for every app's 28.5 s prefix the blob's capacity is
// its length, and its bytes are the 48-byte header and json.Marshal(st).
func TestEncodeWritesPrefixOnce(t *testing.T) {
	const headerLen = 48
	for _, app := range apps.All() {
		st := prefixState(t, app)
		blob, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if cap(blob) != len(blob) {
			t.Errorf("%s: blob has len %d cap %d, want one allocation of its length", app.Name, len(blob), cap(blob))
		}
		if len(blob) != headerLen+len(want) || !bytes.Equal(blob[headerLen:], want) {
			t.Errorf("%s: payload of %d bytes is not json.Marshal's %d", app.Name, len(blob)-headerLen, len(want))
		}
	}
}

// TestDecodePrefixAllocatesItsState pins that Decode holds no copy of the
// payload: decoding every app's 28.5 s prefix allocates its log, at exactly
// its length, plus at most 128 KiB, which covers the rest of the State (the
// frame times among it) and the decoder's buffer for one field. Decoding
// the payload whole allocated 3.2-4.1x the blob, 0.5-2.1 MB beyond the log.
func TestDecodePrefixAllocatesItsState(t *testing.T) {
	const slack = 128 << 10
	for _, app := range apps.All() {
		blob, err := snapshot.Encode(prefixState(t, app))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := snapshot.Decode(blob)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		log := st.Workload.Log
		if cap(log) != len(log) {
			t.Errorf("%s: decoded log has len %d cap %d", app.Name, len(log), cap(log))
		}
		logBytes := uint64(cap(log)) * uint64(unsafe.Sizeof(workload.Record{}))
		if got := after.TotalAlloc - before.TotalAlloc; got > logBytes+slack {
			t.Errorf("%s: decoding a %d-byte blob allocated %d bytes, want at most its %d-byte log + %d",
				app.Name, len(blob), got, logBytes, slack)
		}
	}
}

// frameCap returns the capacity of fps's frame log.
func frameCap(fps *metrics.FPSTracker) int {
	return reflect.ValueOf(fps).Elem().FieldByName("frames").Cap()
}

// TestFrameLogReservedOnce pins that a frame app's run appends its frame
// times into the one log its build reserved, both from scratch and in a
// fork, whose replay appends the prefix's frames: the log's capacity right
// after the build equals its capacity at Finish.
func TestFrameLogReservedOnce(t *testing.T) {
	for _, app := range apps.All() {
		if app.Metric != apps.FPS {
			continue
		}
		cfg := DefaultConfig(app)
		sim, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := frameCap(sim.ctx.FPS)
		sim.RunTo(cfg.Duration)
		sim.Finish()
		if n := sim.ctx.FPS.Count(); n == 0 || frameCap(sim.ctx.FPS) != built {
			t.Errorf("%s: %d frames grew the log from capacity %d to %d", app.Name, n, built, frameCap(sim.ctx.FPS))
		}

		fork, err := Resume(cfg, decodedSnapshot(t, cfg, cfg.Duration/20*19))
		if err != nil {
			t.Fatal(err)
		}
		if got := frameCap(fork.ctx.FPS); got != built {
			t.Errorf("%s: after the fork's replay the log has capacity %d, its build reserved %d", app.Name, got, built)
		}
		fork.RunTo(cfg.Duration)
		fork.Finish()
		if got := frameCap(fork.ctx.FPS); got != built {
			t.Errorf("%s: the fork's continuation grew the log from capacity %d to %d", app.Name, built, got)
		}
	}
}
