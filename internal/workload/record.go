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
// a workload-scheduled event and every per-segment completion callback — into
// a compact log. Restoring re-runs the app's Build in replay mode (closures
// re-register instead of scheduling) and then replays the log in strict
// lockstep: the same closures run in the same order with the same clock and
// consume the same RNG draws, reconstructing the closure graph, the RNG
// position, and the FPS/latency trackers exactly. Replay touches neither the
// event heap nor the scheduler, so it costs a few microseconds per thousand
// records instead of re-simulating the prefix.
//
// The lockstep contract is strict: any mismatch between the replayed code
// path and the log (an unknown event id, a record of an unknown kind, a
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
)

func (k RecKind) String() string {
	switch k {
	case RecFire:
		return "fire"
	case RecSeg:
		return "seg"
	}
	return fmt.Sprintf("RecKind(%d)", uint8(k))
}

// Record is one entry of a workload log. Field use depends on Kind:
// RecFire uses Wid and At; RecSeg uses Th (thread creation index) and At.
type Record struct {
	Kind RecKind    `json:"k"`
	Wid  int        `json:"w,omitempty"`
	Th   int        `json:"t,omitempty"`
	At   event.Time `json:"at,omitempty"`
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
	// modeOff follows Resched: the Recorder then acts as a nil one, and the
	// continuation takes a plain run's paths.
	modeOff
)

// Recorder captures (and later replays) a run's workload log. A nil *Recorder
// on the Ctx disables recording entirely; plain runs pay nothing.
//
// Only a fresh run records: its log grows in fixed blocks, so recording
// allocates about the log it keeps. A resumed run replays the snapshot's log
// in place, shared with the snapshot and with every other fork of it and
// never written, and records nothing once its pending events are re-bound.
type Recorder struct {
	mode    recMode
	log     ring.Ring[Record] // record mode: the records so far, unbounded
	replay  []Record          // replay mode: the log to replay, shared read-only
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

// record appends rec to the log.
func (r *Recorder) record(rec Record) { *r.log.Next(-1, 0) = rec }

// NewRecorder returns a Recorder in record mode, for a fresh snapshot-enabled
// run.
func NewRecorder() *Recorder {
	return &Recorder{mode: modeRecord, live: make(map[int]event.Handle)}
}

// NewReplayer returns a Recorder in replay mode over log. The Recorder reads
// log but never writes it, so any number of Recorders may replay one
// snapshot's log concurrently.
func NewReplayer(log []Record) *Recorder {
	return &Recorder{mode: modeReplay, replay: log, fns: make(map[int]func(now event.Time))}
}

// Recording reports whether the recorder is capturing (as opposed to
// replaying, or off after a resume). A snapshot may only be taken while
// recording.
func (r *Recorder) Recording() bool { return r != nil && r.mode == modeRecord }

func (r *Recorder) replaying() bool { return r != nil && r.mode == modeReplay }

// Log returns the recorded log as a fresh slice of exactly its length, which
// the caller owns. An empty log is nil.
func (r *Recorder) Log() []Record {
	n := r.log.Len()
	if n == 0 {
		return nil
	}
	return r.log.AppendTo(make([]Record, 0, n))
}

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
// mode it schedules fn through a pooled firing, which logs the firing; in
// replay mode it only registers fn under the next id — the replay driver (or
// the pending re-binding) invokes it later. Off, it schedules fn as a plain
// run does.
func (r *Recorder) schedule(eng *event.Engine, at event.Time, fn func(now event.Time)) {
	switch r.mode {
	case modeOff:
		eng.At(at, fn)
		return
	case modeReplay:
		r.fns[r.nextWid] = fn
	default:
		var f *firing
		if n := len(r.free); n > 0 {
			f = r.free[n-1]
			r.free = r.free[:n-1]
		} else {
			f = &firing{r: r}
			f.fire = f.onFire
		}
		f.wid, f.fn = r.nextWid, fn
		r.live[r.nextWid] = eng.At(at, f.fire)
	}
	r.nextWid++
}

// noteSeg logs a per-segment callback invocation (record mode only; replay
// invocations are driven from the log and must not re-log).
func (r *Recorder) noteSeg(th int, now event.Time) {
	if r.mode == modeRecord {
		r.record(Record{Kind: RecSeg, Th: th, At: now})
	}
}

// Replay drives the log to its end: for each record it forces the clock to
// the recorded time and re-invokes the registered closure (RecFire) or the
// thread's segment callback (RecSeg). On any mismatch it panics with
// *DivergenceError.
func (r *Recorder) Replay(eng *event.Engine) {
	if r.mode != modeReplay {
		diverge("Replay called on a Recorder that is not replaying")
	}
	for i, rec := range r.replay {
		switch rec.Kind {
		case RecFire:
			fn := r.fns[rec.Wid]
			if fn == nil {
				diverge("log[%d]: event %d fired but was never registered", i, rec.Wid)
			}
			delete(r.fns, rec.Wid)
			eng.SetNow(rec.At)
			fn(rec.At)
		case RecSeg:
			if rec.Th < 0 || rec.Th >= len(r.threads) {
				diverge("log[%d]: segment callback for unknown thread %d (have %d)", i, rec.Th, len(r.threads))
			}
			eng.SetNow(rec.At)
			r.threads[rec.Th].Task.OnSegment(rec.At)
		default:
			diverge("log[%d]: unknown record kind %d", i, uint8(rec.Kind))
		}
	}
}

// Resched re-inserts the captured pending workload events onto the engine
// (after the engine has been Reset to the capture point) as plain handlers
// under their original (at, seq) keys, then turns the Recorder off: from the
// fork point on it logs nothing and the run takes a plain run's paths.
func (r *Recorder) Resched(eng *event.Engine, pending []PendingEvent) {
	if r.mode != modeReplay {
		diverge("Resched called on a Recorder that is not replaying")
	}
	for _, p := range pending {
		fn := r.fns[p.Wid]
		if fn == nil {
			diverge("pending event %d was never registered during replay", p.Wid)
		}
		delete(r.fns, p.Wid)
		eng.ScheduleAt(p.At, p.Seq, fn)
	}
	for wid := range r.fns {
		diverge("event %d registered during replay but neither fired nor pending", wid)
	}
	r.mode, r.replay, r.fns = modeOff, nil, nil
}
