package delta

import (
	"fmt"

	"biglittle/internal/event"
)

// Snap is the digest recorder's dynamic state for whole-simulation snapshot:
// the chained digest through the capture point, so a forked run's chain
// continues exactly where the prefix left off and stays comparable (window by
// window) with an uninterrupted run's chain. Full-rate Steps are not carried
// across a fork — they are a forensic diagnostic for from-scratch runs.
type Snap struct {
	Window event.Time `json:"window"`
	Cur    int64      `json:"cur"`
	Acc    uint64     `json:"acc"`
	Cum    uint64     `json:"cum"`
	Dirty  bool       `json:"dirty"`
	Sealed []uint64   `json:"sealed"`
}

// Snapshot captures the recorder's chain state without modifying it. Capture
// inside a full-rate Step range is rejected by core (Steps are not restored).
func (r *Recorder) Snapshot() Snap {
	return Snap{
		Window: r.window,
		Cur:    r.cur,
		Acc:    r.acc,
		Cum:    r.cum,
		Dirty:  r.dirty,
		Sealed: append([]uint64(nil), r.sealed...),
	}
}

// Restore loads sn into a freshly Attached recorder (which installed the
// tick subscription and resolved the window from the same config).
func (r *Recorder) Restore(sn *Snap) error {
	if r.sys == nil {
		return fmt.Errorf("delta: restore before Attach")
	}
	if sn.Window != r.window {
		return fmt.Errorf("delta: snapshot window %v != resolved window %v", sn.Window, r.window)
	}
	r.cur = sn.Cur
	r.acc = sn.Acc
	r.cum = sn.Cum
	r.dirty = sn.Dirty
	r.sealed = append(r.sealed[:0], sn.Sealed...)
	return nil
}
