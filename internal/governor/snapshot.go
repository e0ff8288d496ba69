package governor

import (
	"fmt"

	"biglittle/internal/event"
)

// Snap is a governor's dynamic state for whole-simulation snapshot/fork: the
// per-core busy baselines, the interactive governor's per-cluster hold state,
// and the pending self-rescheduled sample event's (at, seq) key. One type
// covers every governor; unused fields stay empty (the static governors have
// no dynamic state at all).
type Snap struct {
	LastBusy     []event.Time `json:"lastBusy,omitempty"`
	HispeedSince []event.Time `json:"hispeedSince,omitempty"`
	LastRaise    []event.Time `json:"lastRaise,omitempty"`

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

func copyTimes(ts []event.Time) []event.Time { return append([]event.Time(nil), ts...) }

func restoreTimes(dst, src []event.Time, what string) error {
	if len(src) != len(dst) {
		return fmt.Errorf("governor: snapshot has %d %s entries, governor has %d", len(src), what, len(dst))
	}
	copy(dst, src)
	return nil
}

// Snapshot captures a load-tracking governor's dynamic state. Only
// interactive keeps hold state; the other policies' nil slices copy to nil,
// which the wire form omits.
func (g *Sampler) Snapshot() Snap {
	sn := Snap{
		LastBusy:     copyTimes(g.lastBusy),
		HispeedSince: copyTimes(g.hispeedSince),
		LastRaise:    copyTimes(g.lastRaise),
	}
	if seq, ok := g.sampleEv.EventSeq(); ok {
		sn.SamplePending, sn.SampleAt, sn.SampleSeq = true, g.sampleEv.At(), seq
	}
	return sn
}

// Restore loads sn; the engine must already be Reset to the capture point.
func (g *Sampler) Restore(sn *Snap) error {
	if err := restoreTimes(g.lastBusy, sn.LastBusy, "lastBusy"); err != nil {
		return err
	}
	if err := restoreTimes(g.hispeedSince, sn.HispeedSince, "hispeedSince"); err != nil {
		return err
	}
	if err := restoreTimes(g.lastRaise, sn.LastRaise, "lastRaise"); err != nil {
		return err
	}
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
