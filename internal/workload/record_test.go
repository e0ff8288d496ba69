package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"biglittle/internal/event"
)

// timerBuild is a scheduler-free workload whose log carries both top-level
// and nested records: a loop whose period depends on an RNG draw routed
// through a busy gate, so replay has to consume RecFire and RecBusy records
// and the RNG in lockstep.
func timerBuild(ctx *Ctx) {
	var tick func(now event.Time)
	tick = func(now event.Time) {
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
	timerBuild(ctx)
	ctx.Eng.Run(t)
	return timerCapture{
		log: ctx.Rec.Log(), pending: ctx.Rec.Pending(),
		now: ctx.Eng.Now(), seq: ctx.Eng.Scheduled(), fired: ctx.Eng.Fired(),
	}
}

// resumeTimers replays log under a fresh build and leaves the returned
// context recording from the capture point, the way core.Resume does.
func resumeTimers(t *testing.T, log []Record, c timerCapture) *Ctx {
	t.Helper()
	ctx := timerCtx(NewReplayer(log))
	timerBuild(ctx)
	ctx.Rec.Replay(ctx.Eng)
	ctx.Eng.Reset(c.now, c.seq, c.fired)
	ctx.Rec.Resched(ctx.Eng, c.pending)
	if !ctx.Rec.Recording() {
		t.Fatal("replayer did not switch to record mode after Resched")
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
	a := resumeTimers(t, shared, c)
	b := resumeTimers(t, shared, c)
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
