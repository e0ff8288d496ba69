package sched

import (
	"biglittle/internal/event"
	"biglittle/internal/xray"
)

// This file holds the scheduler's causal-tracer emit sites. They are pure
// observers: each re-derives the candidate set a decision considered using
// the same inputs the decision used, after the decision was made, entirely
// inside an `s.Xray != nil` guard — so the traced and untraced runs are
// byte-identical and the disabled path costs one pointer check.

// xray rejection reasons for scheduler candidates. Shared string constants
// keep dumps greppable and the vocabulary documented in one place.
const (
	xrayOffline     = "offline"
	xrayAboveTier   = "above-preferred-tier"
	xrayBelowTier   = "below-preferred-tier"
	xrayDeeperQueue = "deeper-queue"
	xrayNotPrevCPU  = "not-previous-cpu"
	xrayQueueTie    = "queue-tie-earlier-core-won"
	xraySourceCore  = "source-core"
)

// xrayCandidates re-derives the candidate set for a placement onto chosen:
// every core, with the reason each non-chosen one lost. affinity marks that
// chosen won as the task's idle previous CPU (cache affinity), in which case
// same-tier peers lose to affinity rather than queue depth. adjust maps a
// core ID to a queue-length correction so callers can report pre-decision
// depths after the queues already changed. The table is the system's
// scratch buffer, valid until the next call; the tracer copies it.
func (s *System) xrayCandidates(chosen *cpu, affinity bool, src int, adjust func(id int) int) []xray.Candidate {
	chosenTier := chosen.typ.Tier()
	cands := s.xrayCands[:0]
	for _, c := range s.cpus {
		qlen := len(c.queue) + adjust(c.id)
		cand := xray.Candidate{Core: c.id, Type: c.typ.String(), QueueLen: qlen}
		switch {
		case c == chosen:
			// chosen: Rejected stays ""
		case !s.SoC.Cores[c.id].Online:
			cand.Rejected = xrayOffline
		case c.id == src:
			cand.Rejected = xraySourceCore
		case c.typ.Tier() > chosenTier:
			cand.Rejected = xrayAboveTier
		case c.typ.Tier() < chosenTier:
			cand.Rejected = xrayBelowTier
		case affinity:
			cand.Rejected = xrayNotPrevCPU
		case qlen > len(chosen.queue)+adjust(chosen.id):
			cand.Rejected = xrayDeeperQueue
		default:
			cand.Rejected = xrayQueueTie
		}
		cands = append(cands, cand)
	}
	s.xrayCands = cands
	return cands
}

func noAdjust(int) int { return 0 }

// xrayWake records the wake-placement span for t onto c. Call it before t is
// enqueued (queue depths are the ones wakeCPU compared); prevCPU is the
// task's previous core as wakeCPU saw it, before Push overwrote lastCPU.
// Only called when s.Xray != nil.
func (s *System) xrayWake(t *Task, c *cpu, prevCPU int, now event.Time, reason string) {
	if t.pinned >= 0 {
		s.Xray.Wake(now, t.ID, t.Name, c.id, s.SoC.Cores[c.id].Cluster,
			s.Xray.Choice("woke pinned on cpu%d", [3]int{c.id}, [2]string{}), reason,
			[]xray.Input{
				{Name: "load", Value: float64(t.Load())},
				{Name: "pinned", Value: float64(t.pinned)},
			},
			[]xray.Candidate{{Core: c.id, Type: c.typ.String(), QueueLen: len(c.queue)}})
		return
	}
	affinity := prevCPU == c.id && len(c.queue) == 0
	s.Xray.Wake(now, t.ID, t.Name, c.id, s.SoC.Cores[c.id].Cluster,
		s.Xray.Choice("woke on cpu%d (%s)", [3]int{c.id}, [2]string{c.typ.String()}), reason,
		[]xray.Input{
			{Name: "load", Value: float64(t.Load())},
			{Name: "up_threshold", Value: float64(s.Cfg.UpThreshold)},
			{Name: "down_threshold", Value: float64(s.Cfg.DownThreshold)},
			{Name: "burst_footprint", Value: t.sleepLoad},
			{Name: "tiny_wake_load", Value: float64(s.Cfg.TinyWakeLoad)},
			{Name: "last_cpu", Value: float64(prevCPU)},
			{Name: "target_tier", Value: float64(s.wakeTier(t, prevCPU))},
		},
		s.xrayCandidates(c, affinity, -1, noAdjust))
}

// xrayMigrate records a migration span. Call it after the queues moved: t is
// already on dst, so queue depths are corrected back to decision time. Only
// called when s.Xray != nil.
func (s *System) xrayMigrate(t *Task, src, dst *cpu, now event.Time, reason string) {
	adjust := func(id int) int {
		switch id {
		case dst.id:
			return -1 // t already appended to dst
		case src.id:
			return 1 // t already removed from src
		}
		return 0
	}
	// No affinity flag here: at migration time the task's previous CPU is the
	// source it is leaving, so cache affinity never picks the destination.
	s.Xray.Migration(now, t.ID, t.Name, src.id, dst.id, s.SoC.Cores[dst.id].Cluster,
		s.Xray.Choice("cpu%d (%s) -> cpu%d (%s)", [3]int{src.id, dst.id}, [2]string{src.typ.String(), dst.typ.String()}), reason,
		[]xray.Input{
			{Name: "load", Value: float64(t.Load())},
			{Name: "up_threshold", Value: float64(s.Cfg.UpThreshold)},
			{Name: "down_threshold", Value: float64(s.Cfg.DownThreshold)},
			{Name: "burst_footprint", Value: t.sleepLoad},
			{Name: "tiny_wake_load", Value: float64(s.Cfg.TinyWakeLoad)},
			{Name: "src_tier", Value: float64(src.typ.Tier())},
			{Name: "dst_tier", Value: float64(dst.typ.Tier())},
		},
		s.xrayCandidates(dst, false, src.id, adjust))
}

// xrayHotplug records a core online/offline transition. queued is the number
// of tasks about to be evicted (offline only). Only called when s.Xray != nil.
func (s *System) xrayHotplug(id int, online bool, queued int, now event.Time, reason string) {
	state := "offline"
	if online {
		state = "online"
	}
	s.Xray.Hotplug(now, id, s.SoC.Cores[id].Cluster,
		s.Xray.Choice("cpu%d %s", [3]int{id}, [2]string{state}), reason,
		[]xray.Input{{Name: "evicted", Value: float64(queued)}})
}
