// Package snapshot defines the whole-simulation snapshot: a versioned,
// checksummed capture of every piece of simulator state — event engine
// counters, pending-event ordering keys, scheduler run queues and PELT
// signals, DVFS and thermal state, metric accumulators, the workload
// record/replay log — sufficient to fork a run. A fork restored from a
// State and continued to time T produces results byte-identical to a
// from-scratch run to T (DESIGN.md §9); internal/lab uses that to run one
// warmed prefix and fork N cheap sweep continuations.
//
// The package is pure data + codec. Capture and restore live in
// internal/core (Sim.Snapshot / Resume), which orchestrates the
// per-subsystem Snapshot/Restore methods this State aggregates.
package snapshot

import (
	"biglittle/internal/altsched"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/thermal"
	"biglittle/internal/workload"
)

// Version is the current snapshot format version. Decode rejects any other
// value: snapshot state mirrors unexported simulator internals, so there is
// no cross-version migration — a snapshot is only valid for the binary
// lineage that wrote it.
const Version = 1

// EngineSnap is the event engine's counters at the capture point. Restore
// forces them with event.Engine.Reset; Fired must be exact because the
// digest recorder folds it into every window digest.
type EngineSnap struct {
	Now   event.Time `json:"now"`
	Seq   uint64     `json:"seq"`
	Fired uint64     `json:"fired"`
}

// WorkloadSnap is the workload layer's state: the record/replay log that
// reconstructs the closure graph and RNG position (see internal/workload
// record.go), the pending workload events' ordering keys, and the
// performance trackers' contents — the latter are reconstructed by replay
// and cross-checked against these captured copies.
type WorkloadSnap struct {
	Log     []workload.Record       `json:"log"`
	Pending []workload.PendingEvent `json:"pending,omitempty"`
	Threads int                     `json:"threads"`

	Frames   []event.Time `json:"frames,omitempty"`
	LatTotal event.Time   `json:"latTotal"`
	LatMax   event.Time   `json:"latMax"`
	LatN     int          `json:"latN"`
}

// State is one whole-simulation snapshot. The identity fields pin what a
// resuming config must agree on (app, seed, cores, SoC); the remaining
// config knobs (governor tuning, scheduler policy, thermal envelope) may
// legitimately differ — that is what a fork sweep varies, and the change
// takes effect at the fork point.
type State struct {
	// Identity: a resuming run must match these exactly.
	App   string              `json:"app"`
	Seed  int64               `json:"seed"`
	Cores platform.CoreConfig `json:"cores"`
	// Platform names the SoC preset; empty is the default Exynos 5422 (or
	// its tiny-extended variant), as in core.Knobs.
	Platform string `json:"platform,omitempty"`

	// Provenance: the kinds the capturing run used. Resume restores policy
	// state only when the resuming config's kind matches; otherwise the new
	// policy starts fresh at the fork point.
	SchedKind string `json:"schedKind"`
	GovKind   string `json:"govKind"`

	// Time is the capture point; Duration the capturing run's horizon.
	Time     event.Time `json:"time"`
	Duration event.Time `json:"duration"`

	Engine   EngineSnap   `json:"engine"`
	Workload WorkloadSnap `json:"workload"`

	Sched   sched.Snap    `json:"sched"`
	SoC     platform.Snap `json:"soc"`
	Gov     governor.Snap `json:"gov"`
	Metrics metrics.Snap  `json:"metrics"`

	Thermal *thermal.Snap     `json:"thermal,omitempty"`
	EAS     *altsched.EASSnap `json:"eas,omitempty"`
	Delta   *delta.Snap       `json:"delta,omitempty"`
}

// PendingEvents returns the number of engine events the snapshot accounts
// for. Capture proves it equals the engine's queue length — any unaccounted
// event (an auditor's sample, a custom hook's timer) makes the run
// unsnapshottable and capture fails loudly.
func (st *State) PendingEvents() int {
	n := st.Sched.PendingEvents() + st.Gov.PendingEvents() + st.Metrics.PendingEvents()
	if st.Thermal != nil {
		n += st.Thermal.PendingEvents()
	}
	return n + len(st.Workload.Pending)
}
