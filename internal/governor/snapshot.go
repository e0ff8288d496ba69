package governor

import (
	"fmt"

	"biglittle/internal/event"
)

// Snap is a governor's dynamic state for whole-simulation snapshot/fork: the
// per-core busy baselines and the pending self-rescheduled sample event's
// (at, seq) key. One type covers every governor; the static governors leave
// it empty, as they have no dynamic state at all.
type Snap struct {
	LastBusy []event.Time `json:"lastBusy,omitempty"`

	SamplePending bool       `json:"sampleP,omitempty"`
	SampleAt      event.Time `json:"sampleAt,omitempty"`
	SampleSeq     uint64     `json:"sampleSeq,omitempty"`
}

// PendingEvents returns how many engine events the snapshot accounts for.
func (sn *Snap) PendingEvents() int {
	if sn.SamplePending {
		return 1
	}
	return 0
}

// Snapshot captures a load-tracking governor's dynamic state.
func (g *Sampler) Snapshot() Snap {
	sn := Snap{LastBusy: append([]event.Time(nil), g.lastBusy...)}
	if seq, ok := g.sampleEv.EventSeq(); ok {
		sn.SamplePending, sn.SampleAt, sn.SampleSeq = true, g.sampleEv.At(), seq
	}
	return sn
}

// Restore loads sn; the engine must already be Reset to the capture point.
func (g *Sampler) Restore(sn *Snap) error {
	if len(sn.LastBusy) != len(g.lastBusy) {
		return fmt.Errorf("governor: snapshot has %d lastBusy entries, governor has %d", len(sn.LastBusy), len(g.lastBusy))
	}
	copy(g.lastBusy, sn.LastBusy)
	if sn.SamplePending {
		g.sampleEv = g.sys.Eng.ScheduleAt(sn.SampleAt, sn.SampleSeq, g.sampleFn)
	}
	return nil
}

// Snapshot captures nothing: static governors apply their policy once at
// Start and hold no dynamic state (the resulting frequencies live in the SoC
// snapshot).
func (s *Static) Snapshot() Snap { return Snap{} }

// Restore of a static governor is a no-op (see Snapshot).
func (s *Static) Restore(sn *Snap) error {
	if sn.SamplePending || len(sn.LastBusy) > 0 {
		return fmt.Errorf("governor: static governor cannot restore a sampling snapshot")
	}
	return nil
}
