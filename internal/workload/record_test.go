package workload

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"biglittle/internal/event"
)

// timerBuild is a scheduler-free workload: a loop whose period depends on an
// RNG draw, so replay has to consume its RecFire records and the RNG in
// lockstep. When fired is non-nil, each tick appends its time to it,
// replayed ticks included.
func timerBuild(ctx *Ctx, fired *[]event.Time) {
	var tick func(now event.Time)
	tick = func(now event.Time) {
		if fired != nil {
			*fired = append(*fired, now)
		}
		d := 10 * event.Millisecond
		if ctx.Rng.Intn(2) == 0 {
			d += 3 * event.Millisecond
		}
		ctx.At(now+d, tick)
	}
	ctx.After(0, tick)
}

func timerCtx(rec *Recorder) *Ctx {
	return &Ctx{Eng: event.New(), Rng: rand.New(rand.NewSource(1)), Duration: event.Second, Rec: rec}
}

// timerCapture is the workload part of a snapshot: the log plus everything
// needed to re-bind the pending events on a fresh engine.
type timerCapture struct {
	log        []Record
	pending    []PendingEvent
	now        event.Time
	seq, fired uint64
}

// recordTimers runs timerBuild uninterrupted to t, appending its ticks to
// fired when that is non-nil, and captures it.
func recordTimers(t event.Time, fired *[]event.Time) (timerCapture, *Ctx) {
	ctx := timerCtx(NewRecorder())
	timerBuild(ctx, fired)
	ctx.Eng.Run(t)
	return timerCapture{
		log: ctx.Rec.Log(), pending: ctx.Rec.Pending(),
		now: ctx.Eng.Now(), seq: ctx.Eng.Scheduled(), fired: ctx.Eng.Fired(),
	}, ctx
}

// resumeTimers replays log under a fresh build and re-binds the pending
// events at the capture point, the way core.Resume does; the returned
// context records nothing from there on.
func resumeTimers(t *testing.T, log []Record, c timerCapture, fired *[]event.Time) *Ctx {
	t.Helper()
	ctx := timerCtx(NewReplayer(log))
	timerBuild(ctx, fired)
	ctx.Rec.Replay(ctx.Eng)
	ctx.Eng.Reset(c.now, c.seq, c.fired)
	ctx.Rec.Resched(ctx.Eng, c.pending)
	if ctx.Rec.Recording() {
		t.Fatal("Recording() after Resched")
	}
	return ctx
}

// TestReplayerSharesLog pins the shared-log contract fork sweeps rely on: a
// replayer reads the snapshot's log in place and never writes it, neither
// the shared elements nor the spare capacity past them, so continuations of
// one log run side by side, each firing what an uninterrupted run fires.
func TestReplayerSharesLog(t *testing.T) {
	const fork = 200 * event.Millisecond
	c, _ := recordTimers(fork, nil)
	if len(c.log) < 10 || len(c.pending) == 0 {
		t.Fatalf("capture too small to test: %d records, %d pending", len(c.log), len(c.pending))
	}

	// The shared log has spare capacity, filled with a sentinel so a write
	// just past its end shows up.
	const spare = 16
	backing := make([]Record, len(c.log)+spare)
	copy(backing, c.log)
	for i := len(c.log); i < len(backing); i++ {
		backing[i] = Record{Kind: RecKind(255), Wid: i}
	}
	orig := append([]Record(nil), backing...)
	shared := backing[:len(c.log)]

	// Two continuations of one log, run to different horizons and
	// interleaved.
	var aFired, bFired []event.Time
	a := resumeTimers(t, shared, c, &aFired)
	b := resumeTimers(t, shared, c, &bFired)
	a.Eng.Run(400 * event.Millisecond)
	b.Eng.Run(300 * event.Millisecond)
	a.Eng.Run(600 * event.Millisecond)

	for i := range backing {
		if backing[i] != orig[i] {
			t.Fatalf("shared log written at index %d (len %d): %+v, was %+v", i, len(c.log), backing[i], orig[i])
		}
	}
	for _, tc := range []struct {
		name  string
		fired []event.Time
		at    event.Time
	}{{"a", aFired, 600 * event.Millisecond}, {"b", bFired, 300 * event.Millisecond}} {
		var want []event.Time
		recordTimers(tc.at, &want)
		if !reflect.DeepEqual(tc.fired, want) {
			t.Fatalf("%s: continuation fired %d ticks, uninterrupted run to %v %d (or at other times)", tc.name, len(tc.fired), tc.at, len(want))
		}
	}
}

// TestEmptyLogIsNil keeps a snapshot of a run that recorded nothing encoding
// its log as it always has (JSON null, not []).
func TestEmptyLogIsNil(t *testing.T) {
	if log := NewRecorder().Log(); log != nil {
		t.Fatalf("empty recorder Log = %#v, want nil", log)
	}
	if log := NewReplayer(nil).Log(); log != nil {
		t.Fatalf("empty replayer Log = %#v, want nil", log)
	}
}

// TestNonRecordingResched pins the continuation every resume runs: after
// Resched the pending events fire as plain handlers under their captured
// (at, seq) keys, and the run fires the same callbacks at the same times,
// schedules and fires the same engine events and leaves the RNG at the same
// position as an uninterrupted run, while it records nothing.
func TestNonRecordingResched(t *testing.T) {
	const fork, end = 200 * event.Millisecond, 700 * event.Millisecond
	c, _ := recordTimers(fork, nil)
	var want, got []event.Time
	_, ref := recordTimers(end, &want)
	off := resumeTimers(t, c.log, c, &got)
	off.Eng.Run(end)

	if len(got) == 0 || got[len(got)-1] <= fork || !reflect.DeepEqual(got, want) {
		t.Fatalf("continuation fired %d ticks, uninterrupted run %d (or at other times)", len(got), len(want))
	}
	if off.Eng.Fired() != ref.Eng.Fired() || off.Eng.Scheduled() != ref.Eng.Scheduled() {
		t.Fatalf("engine fired/scheduled %d/%d, uninterrupted run %d/%d",
			off.Eng.Fired(), off.Eng.Scheduled(), ref.Eng.Fired(), ref.Eng.Scheduled())
	}
	if a, b := off.Rng.Int63(), ref.Rng.Int63(); a != b {
		t.Fatal("continuation left the RNG at another position")
	}
	if log := off.Rec.Log(); log != nil {
		t.Fatalf("continuation recorded %d records", len(log))
	}
	if off.Rec.live != nil || off.Rec.fns != nil || off.Rec.replay != nil {
		t.Fatal("continuation still holds its replay state or tracks live events")
	}
}

// TestRecordingAllocatesWhatItKeeps holds a recorder's log to about what
// it keeps: blocks of records, plus at most one block of slack. A log
// grown by append allocates about five times what it keeps on the way.
func TestRecordingAllocatesWhatItKeeps(t *testing.T) {
	const n = 12_000
	const block = 1024 // records per ring block
	r := NewRecorder()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < n; i++ {
		r.noteSeg(i%3, event.Time(i))
	}
	runtime.ReadMemStats(&ms)
	size := float64(unsafe.Sizeof(Record{}))
	if got, limit := float64(ms.TotalAlloc-before), 1.1*n*size+block*size; got > limit {
		t.Fatalf("recording %d records allocated %.0f B, limit %.0f B (%.2fx what they keep)", n, got, limit, got/(n*size))
	}
	log := r.Log()
	if len(log) != n || cap(log) != n {
		t.Fatalf("Log has len %d cap %d, want both %d", len(log), cap(log), n)
	}
	for i, rec := range log {
		if rec != (Record{Kind: RecSeg, Th: i % 3, At: event.Time(i)}) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}
