package event

import "fmt"

// This file is the engine half of whole-simulation snapshot/restore (see
// DESIGN.md §9). A snapshot cannot serialize Handler closures, so restoring a
// queue works by re-binding: each subsystem re-schedules its own pending
// events with the original (at, seq) keys via ScheduleAt, after Reset has
// cleared the queue and forced the clock and counters. Because equal-time
// ordering is (at, seq) and seq values are reproduced exactly, the restored
// engine fires events in the same total order as the original.

// SetNow forces the simulated clock. It is used by the snapshot replay
// driver, which re-runs workload build code while stepping the clock through
// the recorded firing times so every re-created closure observes the same
// Now() it did originally.
func (e *Engine) SetNow(t Time) { e.now = t }

// Reset clears the event queue and forces the clock and the scheduled/fired
// counters, preparing the engine for handler re-binding. Every queued node is
// recycled (generation bumped), so Handles held by stale closures from a
// replayed build go inert rather than referring to recycled slots. The node
// slab and free list are retained.
func (e *Engine) Reset(now Time, seq, fired uint64) {
	for _, ent := range e.heap {
		id := ent.node
		e.recycle(id, &e.nodes[id])
	}
	e.heap = e.heap[:0]
	e.now = now
	e.seq = seq
	e.fired = fired
	e.stopped = false
}

// BindError reports a pending event that ScheduleAt cannot re-insert under
// its captured key. Restore code has no error path inside the engine, so
// ScheduleAt panics with it; core.Resume recovers it and returns it as an
// ordinary error, because the key came from a decoded snapshot.
type BindError struct{ Msg string }

func (e *BindError) Error() string { return "event: " + e.Msg }

// ScheduleAt schedules fn at absolute time at with an explicit scheduling
// sequence number, without advancing the engine's own sequence counter. It
// exists solely for snapshot restore, which re-inserts the pending events of
// a captured run under their original (at, seq) ordering keys; seq must be
// below the counter value passed to Reset and unique among re-inserted
// events, which a faithful snapshot guarantees by construction. A time
// before Now or a seq at or past the counter panics with *BindError.
func (e *Engine) ScheduleAt(at Time, seq uint64, fn Handler) Handle {
	if at < e.now {
		panic(&BindError{fmt.Sprintf("scheduling at %v before now %v", at, e.now)})
	}
	if seq >= e.seq {
		panic(&BindError{fmt.Sprintf("ScheduleAt seq %d not below counter %d", seq, e.seq)})
	}
	id := e.alloc()
	n := &e.nodes[id]
	n.fn = fn
	e.heap = append(e.heap, entry{at: at, seq: seq, node: id})
	e.siftUp(len(e.heap) - 1)
	return Handle{e: e, at: at, id: id, gen: n.gen}
}

// EventSeq returns the scheduling sequence number of the pending event the
// handle refers to, or ok=false if the event already fired or was cancelled.
// Snapshot capture pairs it with Handle.At to record each pending event's
// full ordering key.
func (h Handle) EventSeq() (seq uint64, ok bool) {
	if h.e == nil {
		return 0, false
	}
	n := &h.e.nodes[h.id]
	if n.gen != h.gen || n.index < 0 {
		return 0, false
	}
	return h.e.heap[n.index].seq, true
}
