// Package altsched implements the two academic scheduling approaches the
// paper contrasts with the commercial utilization-based HMP scheduler in
// §IV-A:
//
//   - Efficiency-based scheduling (Kumar et al. [1,2]): the N threads with
//     the highest big-core speedup among the loaded threads are mapped to
//     the N big cores, maximizing throughput per watt of big-core time.
//   - Parallelism-aware scheduling (Saez et al. [8]): when few threads are
//     runnable the workload is in a serial phase and the critical thread
//     runs on a big core; when parallelism is abundant, threads spread over
//     the energy-efficient little cores.
//
// Both plug into sched.System's MigrateHook/WakeHook, replacing Algorithm 1
// while reusing the run queues, load tracking, balancing, and DVFS stack —
// so the comparison isolates exactly the mapping policy, as the paper's
// discussion does.
package altsched

import (
	"cmp"
	"slices"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
)

// minActiveLoad filters out background slivers: threads below this tracked
// load are never considered for a big core by either policy (they cannot
// benefit, and both papers assume CPU-intensive candidates).
const minActiveLoad = 120

// Efficiency implements efficiency-based scheduling.
type Efficiency struct {
	sys *sched.System
	// candidates is refilled every tick; keeping its backing array on the
	// policy keeps the tick allocation-free.
	candidates []*sched.Task
}

// NewEfficiency attaches the policy to sys (replacing HMP migration).
func NewEfficiency(sys *sched.System) *Efficiency {
	e := &Efficiency{sys: sys}
	sys.MigrateHook = e.rebalance
	sys.WakeHook = e.wakeType
	return e
}

// wakeType sends known-efficient, non-sliver threads toward big cores and
// everything else to little cores; rebalance corrects within a tick.
func (e *Efficiency) wakeType(t *sched.Task) platform.CoreType {
	if t.BurstFootprint() >= minActiveLoad && t.Speedup >= 1.7 {
		return platform.Big
	}
	return platform.Little
}

func (e *Efficiency) rebalance(now event.Time) {
	bigSlots := e.sys.SoC.OnlineCount(platform.Big)
	candidates := e.candidates[:0]
	for _, t := range e.sys.Tasks() {
		if t.CurState() == sched.Sleeping || t.Load() < minActiveLoad {
			// Low-load or sleeping threads stay where they are; demote any
			// that linger on big cores.
			if t.CurState() != sched.Sleeping && e.sys.OnCPUType(t) == platform.Big {
				e.sys.MoveToType(t, platform.Little)
			}
			continue
		}
		candidates = append(candidates, t)
	}
	e.candidates = candidates
	// Top-N by big-core speedup, load as tie-breaker (both Kumar variants
	// rank by measured big-core benefit).
	slices.SortFunc(candidates, func(a, b *sched.Task) int {
		if c := cmp.Compare(b.Speedup, a.Speedup); c != 0 {
			return c
		}
		return byLoadDesc(a, b)
	})
	for i, t := range candidates {
		if i < bigSlots {
			e.sys.MoveToType(t, platform.Big)
		} else {
			e.sys.MoveToType(t, platform.Little)
		}
	}
}

// Parallelism implements parallelism-aware scheduling.
type Parallelism struct {
	sys *sched.System
	// active is refilled every tick, like Efficiency.candidates.
	active []*sched.Task
}

// NewParallelism attaches the policy to sys (replacing HMP migration).
func NewParallelism(sys *sched.System) *Parallelism {
	p := &Parallelism{sys: sys}
	sys.MigrateHook = p.rebalance
	sys.WakeHook = p.wakeType
	return p
}

func (p *Parallelism) wakeType(t *sched.Task) platform.CoreType {
	// Wake onto little; rebalance promotes the serial phase's critical
	// thread within a tick.
	return platform.Little
}

func (p *Parallelism) rebalance(now event.Time) {
	active := p.active[:0]
	for _, t := range p.sys.Tasks() {
		if t.CurState() != sched.Sleeping && t.Load() >= minActiveLoad {
			active = append(active, t)
		}
	}
	p.active = active
	littleSlots := p.sys.SoC.OnlineCount(platform.Little)
	bigSlots := p.sys.SoC.OnlineCount(platform.Big)

	if len(active) <= bigSlots {
		// Serial phase (low parallelism): the few loaded threads form the
		// critical path — run them on big cores.
		for _, t := range active {
			p.sys.MoveToType(t, platform.Big)
		}
	} else if len(active) <= littleSlots {
		// Abundant parallelism that still fits the little cluster: use the
		// energy-efficient cores.
		for _, t := range active {
			p.sys.MoveToType(t, platform.Little)
		}
	} else {
		// Oversubscribed: spill the highest-load threads onto big cores.
		slices.SortFunc(active, byLoadDesc)
		for i, t := range active {
			if i < bigSlots {
				p.sys.MoveToType(t, platform.Big)
			} else {
				p.sys.MoveToType(t, platform.Little)
			}
		}
	}
	// Sleeping-adjacent slivers that drifted onto big cores go home.
	for _, t := range p.sys.Tasks() {
		if t.CurState() != sched.Sleeping && t.Load() < minActiveLoad &&
			p.sys.OnCPUType(t) == platform.Big {
			p.sys.MoveToType(t, platform.Little)
		}
	}
}

// byLoadDesc orders tasks by descending tracked load, equal loads comparing
// equal.
func byLoadDesc(a, b *sched.Task) int { return cmp.Compare(b.Load(), a.Load()) }
