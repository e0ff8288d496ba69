package workload

import (
	"fmt"
	"sort"

	"biglittle/internal/event"
	"biglittle/internal/ring"
)

// Whole-simulation snapshot needs the workload layer's state, but that state
// lives in Go closures (frame loops, interaction pipelines, staged fan-outs)
// which cannot be serialized. Instead of serializing them, a snapshot-enabled
// run records the workload's interaction with the simulator — every firing of
// a workload-scheduled event, every per-segment completion callback, and
// every read of scheduler state — into a compact log. Restoring re-runs the
// app's Build in replay mode (closures re-register instead of scheduling) and
// then replays the log in strict lockstep: the same closures run in the same
// order with the same clock and consume the same RNG draws, reconstructing
// the closure graph, the RNG position, and the FPS/latency trackers exactly.
// Replay touches neither the event heap nor the scheduler, so it costs a few
// microseconds per thousand records instead of re-simulating the prefix.
//
// The lockstep contract is strict: any mismatch between the replayed code
// path and the log (an unknown event id, a record of the wrong kind, a
// missing registration) means the snapshot and the binary disagree, and the
// restore fails loudly with a *DivergenceError rather than continuing from
// corrupt state.

// RecKind labels one Record in a workload log.
type RecKind uint8

const (
	// RecFire marks a workload-scheduled event (Ctx.At/After) firing.
	RecFire RecKind = 1
	// RecSeg marks a thread's per-segment completion callback running.
	RecSeg RecKind = 2
	// RecBusy marks a DropIfBusy gate reading the thread's run state.
	RecBusy RecKind = 3
)

func (k RecKind) String() string {
	switch k {
	case RecFire:
		return "fire"
	case RecSeg:
		return "seg"
	case RecBusy:
		return "busy"
	}
	return fmt.Sprintf("RecKind(%d)", uint8(k))
}

// Record is one entry of a workload log. Field use depends on Kind:
// RecFire uses Wid and At; RecSeg uses Th (thread creation index) and At;
// RecBusy uses Busy.
type Record struct {
	Kind RecKind    `json:"k"`
	Wid  int        `json:"w,omitempty"`
	Th   int        `json:"t,omitempty"`
	At   event.Time `json:"at,omitempty"`
	Busy bool       `json:"b,omitempty"`
}

// PendingEvent describes one workload event still queued at capture time:
// its log id and its exact (at, seq) engine ordering key, so restore can
// re-insert it with event.Engine.ScheduleAt and preserve the firing order.
type PendingEvent struct {
	Wid int        `json:"w"`
	At  event.Time `json:"at"`
	Seq uint64     `json:"seq"`
}

// DivergenceError reports that a replayed run's code path disagreed with the
// recorded log — the snapshot was taken by a different binary, config, or
// seed than the one restoring it.
type DivergenceError struct{ Msg string }

func (e *DivergenceError) Error() string { return "workload replay diverged: " + e.Msg }

// diverge aborts the replay. It panics (restore runs deep inside re-entered
// workload closures with no error path); core.Resume recovers the
// *DivergenceError and returns it as an ordinary error.
func diverge(format string, args ...any) {
	panic(&DivergenceError{Msg: fmt.Sprintf(format, args...)})
}

type recMode uint8

const (
	modeRecord recMode = iota
	modeReplay
	// modeOff follows a Resched that keeps no log: the Recorder then acts
	// as a nil one, and the continuation takes a plain run's paths.
	modeOff
)

// Recorder captures (and later replays) a run's workload log. A nil *Recorder
// on the Ctx disables recording entirely; plain runs pay nothing.
//
// The log is held in two parts. prefix is the replayed log a resumed run was
// created from; it is shared with the snapshot (and with every other fork of
// it) and never written. tail holds the records this run appended itself, so
// a fork pays only for what its continuation records, not for a copy of the
// prefix. tail grows in fixed blocks, so recording allocates about the log
// it keeps.
type Recorder struct {
	mode    recMode
	prefix  []Record          // replay source, shared read-only
	tail    ring.Ring[Record] // records appended by this run, unbounded
	cursor  int               // next prefix record to replay
	nextWid int
	live    map[int]event.Handle         // record mode: pending wid → handle
	fns     map[int]func(now event.Time) // replay mode: registered wid → fn
	threads []*Thread                    // creation order; RecSeg targets
	free    []*firing                    // record mode: fired firings, reused
}

// firing is one record-mode workload event on the engine: the workload's
// callback and its log id. Its engine handler is bound once, and the firing
// returns to the Recorder's free list when it fires, so recording allocates
// nothing per event once the pool covers the events in flight.
type firing struct {
	r    *Recorder
	wid  int
	fn   func(now event.Time)
	fire event.Handler // onFire, bound once
}

// onFire logs the firing, drops it from the live set and runs the callback.
func (f *firing) onFire(now event.Time) {
	r, wid, fn := f.r, f.wid, f.fn
	f.fn = nil // release the callback for GC
	r.free = append(r.free, f)
	delete(r.live, wid)
	r.record(Record{Kind: RecFire, Wid: wid, At: now})
	fn(now)
}

// record appends rec to the tail.
func (r *Recorder) record(rec Record) { *r.tail.Next(-1, 0) = rec }

// NewRecorder returns a Recorder in record mode, for a fresh snapshot-enabled
// run.
func NewRecorder() *Recorder {
	return &Recorder{mode: modeRecord, live: make(map[int]event.Handle)}
}

// NewReplayer returns a Recorder in replay mode over log. The Recorder reads
// log but never writes it, not even past its length: once the resumed run
// switches to record mode it appends to a tail of its own. So any number of
// Recorders may replay one snapshot's log concurrently.
func NewReplayer(log []Record) *Recorder {
	return &Recorder{
		mode:   modeReplay,
		prefix: log,
		live:   make(map[int]event.Handle),
		fns:    make(map[int]func(now event.Time)),
	}
}

// Recording reports whether the recorder is capturing (as opposed to
// replaying). A snapshot may only be taken while recording.
func (r *Recorder) Recording() bool { return r != nil && r.mode == modeRecord }

func (r *Recorder) replaying() bool { return r != nil && r.mode == modeReplay }

// Log returns the whole log, the replayed prefix followed by the records this
// run appended, as a fresh slice of exactly that length which the caller
// owns. An empty log is nil.
func (r *Recorder) Log() []Record {
	n := len(r.prefix) + r.tail.Len()
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	out = append(out, r.prefix...)
	return r.tail.AppendTo(out)
}

// PendingCount returns the number of workload events currently queued on the
// engine. Capture uses it to prove every engine event is accounted for.
func (r *Recorder) PendingCount() int { return len(r.live) }

// ThreadCount returns how many threads the workload build registered — a
// cheap cross-check that a replayed build recreated the original structure.
func (r *Recorder) ThreadCount() int { return len(r.threads) }

// Pending returns descriptors for the workload events still queued at
// capture, ordered by engine sequence number (deterministic).
func (r *Recorder) Pending() []PendingEvent {
	out := make([]PendingEvent, 0, len(r.live))
	for wid, h := range r.live {
		seq, ok := h.EventSeq()
		if !ok {
			diverge("live event %d is not pending on the engine", wid)
		}
		out = append(out, PendingEvent{Wid: wid, At: h.At(), Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// registerThread assigns the thread its creation index. Creation order is
// deterministic (builds are single-threaded), so record and replay agree on
// the numbering.
func (r *Recorder) registerThread(th *Thread) int {
	r.threads = append(r.threads, th)
	return len(r.threads) - 1
}

// schedule is the record/replay interposition point for Ctx.At. In record
// mode it schedules fn through a firing, which logs the firing; in replay
// mode it only registers fn under the next id — the replay driver (or the
// pending re-binding) invokes it later. Off, it schedules fn as a plain run
// does.
func (r *Recorder) schedule(eng *event.Engine, at event.Time, fn func(now event.Time)) {
	switch r.mode {
	case modeOff:
		eng.At(at, fn)
		return
	case modeReplay:
		r.fns[r.nextWid] = fn
	default:
		r.live[r.nextWid] = eng.At(at, r.bind(r.nextWid, fn))
	}
	r.nextWid++
}

// bind returns the engine handler that logs fn's firing under wid, drops it
// from the live set and runs fn, taking a pooled firing when one is free.
func (r *Recorder) bind(wid int, fn func(now event.Time)) event.Handler {
	var f *firing
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		f = &firing{r: r}
		f.fire = f.onFire
	}
	f.wid, f.fn = wid, fn
	return f.fire
}

// noteSeg logs a per-segment callback invocation (record mode only; replay
// invocations are driven from the log and must not re-log).
func (r *Recorder) noteSeg(th int, now event.Time) {
	if r.mode == modeRecord {
		r.record(Record{Kind: RecSeg, Th: th, At: now})
	}
}

// observeBusy routes a DropIfBusy read through the log: recorded on capture,
// served from the log on replay (the scheduler does not run during replay, so
// the live read would be wrong), and passed through when off.
func (r *Recorder) observeBusy(busy bool) bool {
	switch r.mode {
	case modeRecord:
		r.record(Record{Kind: RecBusy, Busy: busy})
		return busy
	case modeOff:
		return busy
	}
	rec := r.next()
	if rec.Kind != RecBusy {
		diverge("log[%d]: replay read a busy gate but the record is %v", r.cursor-1, rec.Kind)
	}
	return rec.Busy
}

// next consumes one record.
func (r *Recorder) next() Record {
	if r.cursor >= len(r.prefix) {
		diverge("log exhausted at record %d", r.cursor)
	}
	rec := r.prefix[r.cursor]
	r.cursor++
	return rec
}

// Replay drives the log to its end: for each top-level record it forces the
// clock to the recorded firing time and re-invokes the registered closure
// (RecFire) or the thread's segment callback (RecSeg). Nested reads (RecBusy)
// are consumed inline by the closures themselves. On any mismatch it panics
// with *DivergenceError.
func (r *Recorder) Replay(eng *event.Engine) {
	if r.mode != modeReplay {
		diverge("Replay called on a Recorder that is not replaying")
	}
	for r.cursor < len(r.prefix) {
		rec := r.next()
		switch rec.Kind {
		case RecFire:
			fn := r.fns[rec.Wid]
			if fn == nil {
				diverge("log[%d]: event %d fired but was never registered", r.cursor-1, rec.Wid)
			}
			delete(r.fns, rec.Wid)
			eng.SetNow(rec.At)
			fn(rec.At)
		case RecSeg:
			if rec.Th < 0 || rec.Th >= len(r.threads) {
				diverge("log[%d]: segment callback for unknown thread %d (have %d)",
					r.cursor-1, rec.Th, len(r.threads))
			}
			eng.SetNow(rec.At)
			r.threads[rec.Th].Task.OnSegment(rec.At)
		case RecBusy:
			diverge("log[%d]: busy-gate record not consumed by its event", r.cursor-1)
		default:
			diverge("log[%d]: unknown record kind %d", r.cursor-1, uint8(rec.Kind))
		}
	}
}

// Resched re-inserts the captured pending workload events onto the engine
// (after the engine has been Reset to the capture point) under their original
// (at, seq) keys. With record set it switches the Recorder to record mode, so
// the resumed run extends the log exactly as an uninterrupted run would have.
// Without it the events go on as plain handlers and the Recorder turns off:
// from the fork point on it logs nothing and the run takes a plain run's
// paths, while Log still returns the replayed prefix.
func (r *Recorder) Resched(eng *event.Engine, pending []PendingEvent, record bool) {
	if r.mode != modeReplay {
		diverge("Resched called on a Recorder that is not replaying")
	}
	for _, p := range pending {
		fn := r.fns[p.Wid]
		if fn == nil {
			diverge("pending event %d was never registered during replay", p.Wid)
		}
		delete(r.fns, p.Wid)
		if record {
			r.live[p.Wid] = eng.ScheduleAt(p.At, p.Seq, r.bind(p.Wid, fn))
		} else {
			eng.ScheduleAt(p.At, p.Seq, fn)
		}
	}
	for wid := range r.fns {
		diverge("event %d registered during replay but neither fired nor pending", wid)
	}
	r.fns = nil
	if record {
		r.mode = modeRecord
	} else {
		r.mode, r.live = modeOff, nil
	}
}
