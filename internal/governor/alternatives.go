package governor

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// loadSampler is the shared skeleton of the load-tracking governors: every
// sample period it computes each online core's utilization and programs the
// cluster to the maximum of a per-core policy function's targets.
type loadSampler struct {
	// Tel, when non-nil, receives a KindGovernor event for each frequency
	// change decision; Reason carries the governor's name and Value the
	// triggering utilization (percent).
	Tel *telemetry.Collector
	// Xray, when non-nil, receives a decision span for every frequency
	// change with the per-core utilizations and targets as candidates; the
	// reason is the governor's name. See Interactive.Xray.
	Xray *xray.Tracer
	// xrayCands is the scratch candidate buffer, reused across samples.
	xrayCands []xray.Candidate

	sys      *sched.System
	name     string
	sample   event.Time
	sampleFn event.Handler // cached method value: evaluating g.onSample allocates
	sampleEv event.Handle  // the pending sample (retained for snapshot capture)
	lastBusy []event.Time
	target   func(cl *platform.Cluster, curMHz int, util float64) int
}

func newLoadSampler(sys *sched.System, name string, sampleMs int,
	target func(cl *platform.Cluster, curMHz int, util float64) int) *loadSampler {
	if sampleMs <= 0 {
		sampleMs = 20
	}
	g := &loadSampler{
		sys:      sys,
		name:     name,
		sample:   event.Time(sampleMs) * event.Millisecond,
		lastBusy: make([]event.Time, len(sys.SoC.Cores)),
		target:   target,
	}
	g.sampleFn = g.onSample
	return g
}

// Start schedules the periodic sampling.
func (g *loadSampler) Start() {
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

func (g *loadSampler) onSample(now event.Time) {
	g.sys.SyncAll(now)
	for ci := range g.sys.SoC.Clusters {
		cl := &g.sys.SoC.Clusters[ci]
		cur := cl.CurMHz
		best := 0
		maxUtil := 0.0
		if g.Xray != nil {
			g.xrayCands = g.xrayCands[:0]
		}
		for _, id := range cl.CoreIDs {
			if !g.sys.SoC.Cores[id].Online {
				if g.Xray != nil {
					g.xrayCands = append(g.xrayCands, xray.Candidate{
						Core: id, Type: g.sys.SoC.Cores[id].Type.String(), Rejected: "offline",
					})
				}
				continue
			}
			busy := g.sys.BusyNs(id)
			util := sched.CoreBusyFraction(g.lastBusy[id], busy, g.sample)
			g.lastBusy[id] = busy
			if util > maxUtil {
				maxUtil = util
			}
			t := g.target(cl, cur, util)
			if t > best {
				best = t
			}
			if g.Xray != nil {
				g.xrayCands = append(g.xrayCands, xray.Candidate{
					Core: id, Type: g.sys.SoC.Cores[id].Type.String(),
					QueueLen: g.sys.QueueLen(id), Load: 100 * util, TargetMHz: t,
				})
			}
		}
		if best == 0 {
			best = cl.MinMHz()
		}
		if best != cur {
			got := g.sys.SetClusterFreq(ci, best)
			if got != cur {
				if g.Tel != nil {
					g.Tel.Emit(telemetry.Event{
						At: now, Kind: telemetry.KindGovernor,
						Task: -1, Core: -1, FromCore: -1, Cluster: ci,
						PrevMHz: cur, MHz: got,
						Reason: g.name, Value: 100 * maxUtil,
					})
				}
				if g.Xray != nil {
					g.Xray.FreqStep(now, ci, cur, got,
						g.Xray.Choice("cluster%d %d -> %d MHz", [3]int{ci, cur, got}, [2]string{}), g.name,
						[]xray.Input{{Name: "max_util_pct", Value: 100 * maxUtil}},
						markGovernorChoice(g.xrayCands, best))
				}
			}
		}
	}
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

// NewOndemand builds the classic Linux ondemand governor: jump straight to
// the maximum frequency when utilization exceeds 80%, otherwise set the
// lowest frequency that keeps utilization under that threshold. Fast
// reaction, jumpy power.
func NewOndemand(sys *sched.System, sampleMs int) *loadSampler {
	const up = 0.80
	return newLoadSampler(sys, "ondemand", sampleMs, func(cl *platform.Cluster, cur int, util float64) int {
		if util > up {
			return cl.MaxMHz()
		}
		// Proportional down-scaling with the same headroom.
		return int(float64(cur) * util / up)
	})
}

// NewConservative builds the Linux conservative governor: frequency moves
// one 100 MHz table step at a time — up above 80% utilization, down below
// 35%. Smooth power, slow reaction.
func NewConservative(sys *sched.System, sampleMs int) *loadSampler {
	const up, down = 0.80, 0.35
	return newLoadSampler(sys, "conservative", sampleMs, func(cl *platform.Cluster, cur int, util float64) int {
		switch {
		case util > up:
			return cl.ClampMHz(cur + 100)
		case util < down:
			if cur-100 < cl.MinMHz() {
				return cl.MinMHz()
			}
			return cur - 100
		default:
			return cur
		}
	})
}

// NewPAST builds Weiser et al.'s PAST policy (§IV-D cites it as the
// precursor of the interactive governor): the next interval is assumed to
// repeat the previous one, and the speed is set so that the predicted work
// just fits — i.e. target = current_speed × utilization, with a small
// headroom so minor increases do not immediately saturate.
func NewPAST(sys *sched.System, sampleMs int) *loadSampler {
	const headroom = 0.9 // run the predicted load at 90% utilization
	return newLoadSampler(sys, "past", sampleMs, func(cl *platform.Cluster, cur int, util float64) int {
		return int(float64(cur) * util / headroom)
	})
}
