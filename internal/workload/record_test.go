package workload

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"biglittle/internal/event"
)

// timerBuild is a scheduler-free workload whose log carries both top-level
// and nested records: a loop whose period depends on an RNG draw routed
// through a busy gate, so replay has to consume RecFire and RecBusy records
// and the RNG in lockstep. When fired is non-nil, each tick appends its
// time to it, replayed ticks included.
func timerBuild(ctx *Ctx, fired *[]event.Time) {
	var tick func(now event.Time)
	tick = func(now event.Time) {
		if fired != nil {
			*fired = append(*fired, now)
		}
		d := 10 * event.Millisecond
		if ctx.Rec.observeBusy(ctx.Rng.Intn(2) == 0) {
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

// recordTimers runs timerBuild uninterrupted to t and captures it.
func recordTimers(t event.Time) timerCapture {
	ctx := timerCtx(NewRecorder())
	timerBuild(ctx, nil)
	ctx.Eng.Run(t)
	return timerCapture{
		log: ctx.Rec.Log(), pending: ctx.Rec.Pending(),
		now: ctx.Eng.Now(), seq: ctx.Eng.Scheduled(), fired: ctx.Eng.Fired(),
	}
}

// resumeTimers replays log under a fresh build and re-binds the pending
// events at the capture point, leaving the returned context recording from
// there when record is set, the way core.Resume does, and not recording
// otherwise, the way core.RunFrom does.
func resumeTimers(t *testing.T, log []Record, c timerCapture, record bool, fired *[]event.Time) *Ctx {
	t.Helper()
	ctx := timerCtx(NewReplayer(log))
	timerBuild(ctx, fired)
	ctx.Rec.Replay(ctx.Eng)
	ctx.Eng.Reset(c.now, c.seq, c.fired)
	ctx.Rec.Resched(ctx.Eng, c.pending, record)
	if ctx.Rec.Recording() != record {
		t.Fatalf("Recording() = %v after Resched(record=%v)", ctx.Rec.Recording(), record)
	}
	return ctx
}

// TestReplayerSharesLog pins the shared-log contract fork sweeps rely on: a
// replayer reads the snapshot's log in place and records its continuation
// into a tail of its own. It must write neither the shared elements nor the
// spare capacity past them (an append there would hand one fork's records to
// the next), and Log must still return the whole prefix ++ tail.
func TestReplayerSharesLog(t *testing.T) {
	const fork = 200 * event.Millisecond
	c := recordTimers(fork)
	if len(c.log) < 20 || len(c.pending) == 0 {
		t.Fatalf("capture too small to test: %d records, %d pending", len(c.log), len(c.pending))
	}
	kinds := map[RecKind]bool{}
	for _, r := range c.log {
		kinds[r.Kind] = true
	}
	if !kinds[RecFire] || !kinds[RecBusy] {
		t.Fatalf("capture lacks fire or busy records: %v", kinds)
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
	// interleaved, each must see only its own tail.
	a := resumeTimers(t, shared, c, true, nil)
	b := resumeTimers(t, shared, c, true, nil)
	a.Eng.Run(400 * event.Millisecond)
	b.Eng.Run(300 * event.Millisecond)
	a.Eng.Run(600 * event.Millisecond)

	if !reflect.DeepEqual(backing, orig) {
		for i := range backing {
			if backing[i] != orig[i] {
				t.Fatalf("shared log written at index %d (len %d): %+v, was %+v", i, len(c.log), backing[i], orig[i])
			}
		}
	}
	for _, tc := range []struct {
		name string
		ctx  *Ctx
		at   event.Time
	}{{"a", a, 600 * event.Millisecond}, {"b", b, 300 * event.Millisecond}} {
		got := tc.ctx.Rec.Log()
		if len(got) <= len(c.log) {
			t.Fatalf("%s: continuation recorded nothing (%d records, prefix %d)", tc.name, len(got), len(c.log))
		}
		if !reflect.DeepEqual(got[:len(c.log)], c.log) {
			t.Fatalf("%s: Log does not start with the shared prefix", tc.name)
		}
		// prefix ++ tail is exactly what an uninterrupted run records.
		want := recordTimers(tc.at).log
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Log has %d records, uninterrupted run to %v has %d (or they differ)", tc.name, len(got), tc.at, len(want))
		}
		// Log hands out a fresh slice: scribbling on it changes nothing.
		got[0], got[len(got)-1] = Record{}, Record{}
		if again := tc.ctx.Rec.Log(); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: writing to a returned Log changed the recorder's log", tc.name)
		}
	}
	if !reflect.DeepEqual(backing, orig) {
		t.Fatal("shared log changed by writes to a returned Log")
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

// TestNonRecordingResched pins the continuation core.RunFrom runs: after a
// Resched that keeps no log, the pending events fire as plain handlers
// under their captured (at, seq) keys, and the run fires the same callbacks
// at the same times, schedules and fires the same engine events and leaves
// the RNG at the same position as a recording continuation, while its log
// stays exactly the replayed prefix.
func TestNonRecordingResched(t *testing.T) {
	const fork, end = 200 * event.Millisecond, 700 * event.Millisecond
	c := recordTimers(fork)
	var recFired, offFired []event.Time
	rec := resumeTimers(t, c.log, c, true, &recFired)
	off := resumeTimers(t, c.log, c, false, &offFired)
	rec.Eng.Run(end)
	off.Eng.Run(end)

	if len(offFired) == 0 || offFired[len(offFired)-1] <= fork || !reflect.DeepEqual(offFired, recFired) {
		t.Fatalf("non-recording continuation fired %d ticks, recording one %d (or at other times)", len(offFired), len(recFired))
	}
	if off.Eng.Fired() != rec.Eng.Fired() || off.Eng.Scheduled() != rec.Eng.Scheduled() {
		t.Fatalf("engine fired/scheduled %d/%d, recording continuation %d/%d",
			off.Eng.Fired(), off.Eng.Scheduled(), rec.Eng.Fired(), rec.Eng.Scheduled())
	}
	if a, b := off.Rng.Int63(), rec.Rng.Int63(); a != b {
		t.Fatal("non-recording continuation left the RNG at another position")
	}
	if got := off.Rec.Log(); !reflect.DeepEqual(got, c.log) {
		t.Fatalf("non-recording continuation's log has %d records, want the %d-record prefix", len(got), len(c.log))
	}
	if off.Rec.PendingCount() != 0 {
		t.Fatalf("non-recording continuation tracks %d live events", off.Rec.PendingCount())
	}
	if got, want := rec.Rec.Log(), recordTimers(end).log; !reflect.DeepEqual(got, want) {
		t.Fatal("recording continuation's log differs from an uninterrupted run's")
	}
}

// TestRecordingAllocatesWhatItKeeps holds a recorder's tail to about the
// log it keeps: blocks of records, plus at most one block of slack. A tail
// grown by append allocates about five times what it keeps on the way.
func TestRecordingAllocatesWhatItKeeps(t *testing.T) {
	const n = 12_000
	const block = 1024 // records per ring block
	r := NewRecorder()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for i := 0; i < n; i++ {
		r.observeBusy(i%3 == 0)
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
		if rec != (Record{Kind: RecBusy, Busy: i%3 == 0}) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}
