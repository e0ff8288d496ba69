// Package governor implements the CPU frequency governors from §IV-C of the
// paper. The centerpiece is the interactive governor (Algorithm 2): at every
// sampling period (default 20 ms) it reads each online core's utilization
// since the last sample, computes a target frequency freq·util/targetLoad,
// jumps to a preset hispeed frequency on load spikes, and — because each
// cluster shares one clock (§II) — programs every cluster to the maximum of
// its cores' targets.
//
// Performance, powersave, and userspace governors are provided as baselines.
package governor

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// InteractiveConfig holds the tunables the paper sweeps in §VI-C.
type InteractiveConfig struct {
	// SampleMs is the sampling period (default 20; swept to 60 and 100).
	SampleMs int
	// TargetLoad is the utilization the governor aims to maintain, percent
	// (default 70; swept to 60 and 80). It doubles as the hispeed-jump
	// threshold, as in the paper's description.
	TargetLoad int
	// DownThreshold: below this utilization percent the frequency is scaled
	// down to the target (default 45).
	DownThreshold int
	// HispeedMHz maps core type to the preset jump frequency.
	HispeedLittleMHz int
	HispeedBigMHz    int
	HispeedTinyMHz   int
	// AboveHispeedDelayMs delays climbing beyond the hispeed frequency
	// until the load has persisted that long (0 = climb immediately), and
	// MinSampleTimeMs holds the current frequency for at least that long
	// before any down-scaling — both are tunables of the real interactive
	// governor that damp frequency thrash.
	AboveHispeedDelayMs int
	MinSampleTimeMs     int
}

// DefaultInteractive returns the paper's baseline governor parameters.
func DefaultInteractive() InteractiveConfig {
	return InteractiveConfig{
		SampleMs:         20,
		TargetLoad:       70,
		DownThreshold:    45,
		HispeedLittleMHz: 1000,
		HispeedBigMHz:    1500,
		HispeedTinyMHz:   500,
	}
}

// Interactive is the load-tracking DVFS governor.
type Interactive struct {
	Cfg InteractiveConfig

	sys      *sched.System
	sample   event.Time
	sampleFn event.Handler // cached method value: evaluating g.onSample allocates
	sampleEv event.Handle  // the pending sample (retained for snapshot capture)
	lastBusy []event.Time
	// Per-cluster hold state for the delay tunables.
	hispeedSince []event.Time
	lastRaise    []event.Time
	// Tel, when non-nil, receives a KindGovernor event for every frequency
	// change decision, carrying the triggering utilization (Value, percent)
	// and the reason (hispeed jump, scale-up, scale-down).
	Tel *telemetry.Collector
	// Xray, when non-nil, receives a decision span for every frequency
	// change: each online core's utilization and per-core target (the
	// candidates; the cluster takes the max), the thresholds compared, and
	// the reason. Nil disables tracing at one pointer check per sample.
	Xray *xray.Tracer
	// xrayCands is the scratch candidate buffer, reused across samples so
	// tracing only allocates when a span is actually recorded.
	xrayCands []xray.Candidate
}

// NewInteractive attaches an interactive governor to sys. Call Start to
// begin sampling.
func NewInteractive(sys *sched.System, cfg InteractiveConfig) *Interactive {
	if cfg.SampleMs <= 0 {
		cfg.SampleMs = 20
	}
	if cfg.TargetLoad <= 0 || cfg.TargetLoad > 100 {
		cfg.TargetLoad = 70
	}
	if cfg.DownThreshold <= 0 {
		cfg.DownThreshold = 45
	}
	g := &Interactive{
		Cfg:          cfg,
		sys:          sys,
		sample:       event.Time(cfg.SampleMs) * event.Millisecond,
		lastBusy:     make([]event.Time, len(sys.SoC.Cores)),
		hispeedSince: make([]event.Time, len(sys.SoC.Clusters)),
		lastRaise:    make([]event.Time, len(sys.SoC.Clusters)),
	}
	for i := range g.hispeedSince {
		g.hispeedSince[i] = -1
	}
	g.sampleFn = g.onSample
	return g
}

// Start schedules the periodic sampling.
func (g *Interactive) Start() {
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

func (g *Interactive) hispeed(t platform.CoreType) int {
	switch t {
	case platform.Big:
		return g.Cfg.HispeedBigMHz
	case platform.Tiny:
		if g.Cfg.HispeedTinyMHz > 0 {
			return g.Cfg.HispeedTinyMHz
		}
		return 500
	default:
		return g.Cfg.HispeedLittleMHz
	}
}

func (g *Interactive) onSample(now event.Time) {
	g.sys.SyncAll(now)
	for ci := range g.sys.SoC.Clusters {
		cl := &g.sys.SoC.Clusters[ci]
		cur := cl.CurMHz
		target := 0
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
			t := g.coreTarget(cl, cur, util)
			if t > target {
				target = t
			}
			if g.Xray != nil {
				g.xrayCands = append(g.xrayCands, xray.Candidate{
					Core: id, Type: g.sys.SoC.Cores[id].Type.String(),
					QueueLen: g.sys.QueueLen(id), Load: 100 * util, TargetMHz: t,
				})
			}
		}
		if target == 0 {
			target = cl.MinMHz()
		}
		// above_hispeed_delay: hold at hispeed until the demand persists.
		if d := g.Cfg.AboveHispeedDelayMs; d > 0 {
			hs := g.hispeed(cl.Type)
			if target > hs && cur >= hs {
				if g.hispeedSince[ci] < 0 {
					g.hispeedSince[ci] = now
				}
				if now-g.hispeedSince[ci] < event.Time(d)*event.Millisecond {
					target = cur
				}
			} else if target <= hs {
				g.hispeedSince[ci] = -1
			}
		}
		// min_sample_time: do not scale down right after a raise.
		if m := g.Cfg.MinSampleTimeMs; m > 0 && target < cur {
			if now-g.lastRaise[ci] < event.Time(m)*event.Millisecond {
				target = cur
			}
		}
		newMHz := cur
		if target != cur {
			newMHz = g.sys.SetClusterFreq(ci, target)
			if newMHz > cur {
				g.lastRaise[ci] = now
			}
			if newMHz != cur {
				reason := telemetry.ReasonScaleDown
				if newMHz > cur {
					if cur < g.hispeed(cl.Type) && newMHz >= g.hispeed(cl.Type) {
						reason = telemetry.ReasonHispeed
					} else {
						reason = telemetry.ReasonScaleUp
					}
				}
				if g.Tel != nil {
					g.Tel.Emit(telemetry.Event{
						At: now, Kind: telemetry.KindGovernor,
						Task: -1, Core: -1, FromCore: -1, Cluster: ci,
						PrevMHz: cur, MHz: newMHz,
						Reason: reason, Value: 100 * maxUtil,
					})
				}
				if g.Xray != nil {
					g.Xray.FreqStep(now, ci, cur, newMHz,
						g.Xray.Choice("cluster%d %d -> %d MHz", [3]int{ci, cur, newMHz}, [2]string{}), reason,
						[]xray.Input{
							{Name: "max_util_pct", Value: 100 * maxUtil},
							{Name: "target_load", Value: float64(g.Cfg.TargetLoad)},
							{Name: "down_threshold", Value: float64(g.Cfg.DownThreshold)},
							{Name: "hispeed_mhz", Value: float64(g.hispeed(cl.Type))},
						},
						markGovernorChoice(g.xrayCands, target))
				}
			}
		}
	}
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

// markGovernorChoice marks, in place in the scratch candidate buffer, the
// first core whose per-core target equals the cluster's winning target as
// chosen and rejects the rest: the cluster shares one clock, so every lower
// per-core demand is overridden by the max. It returns the buffer, which the
// tracer copies when it records the span.
func markGovernorChoice(out []xray.Candidate, target int) []xray.Candidate {
	// Prefer the core whose target exactly equals the programmed frequency;
	// when the hold/clamp logic overrode the raw max, fall back to the
	// highest per-core demand as the driving core.
	chosen := -1
	for i := range out {
		if out[i].Rejected != "" {
			continue
		}
		if out[i].TargetMHz == target {
			chosen = i
			break
		}
		if chosen < 0 || out[i].TargetMHz > out[chosen].TargetMHz {
			chosen = i
		}
	}
	for i := range out {
		if i != chosen && out[i].Rejected == "" {
			out[i].Rejected = "lower-target"
		}
	}
	return out
}

// coreTarget applies Algorithm 2 for one core.
func (g *Interactive) coreTarget(cl *platform.Cluster, curMHz int, util float64) int {
	utilPct := int(util*100 + 0.5)
	targetFreq := int(float64(curMHz) * util * 100 / float64(g.Cfg.TargetLoad))
	switch {
	case utilPct > g.Cfg.TargetLoad:
		hs := g.hispeed(cl.Type)
		if curMHz < hs {
			return hs
		}
		return targetFreq
	case utilPct < g.Cfg.DownThreshold:
		if targetFreq < cl.MinMHz() {
			return cl.MinMHz()
		}
		return targetFreq
	default:
		return curMHz
	}
}

// Static is a trivial governor that pins every cluster to a fixed frequency
// policy at start — the "performance", "powersave", and "userspace"
// governors used for the architectural experiments in §III, where the paper
// pins frequencies explicitly.
type Static struct {
	sys *sched.System
	// MHz maps cluster ID to the pinned frequency; missing entries pin to
	// the cluster maximum.
	MHz map[int]int
}

// NewPerformance pins all clusters to their maximum frequency.
func NewPerformance(sys *sched.System) *Static {
	return &Static{sys: sys}
}

// NewPowersave pins all clusters to their minimum frequency.
func NewPowersave(sys *sched.System) *Static {
	m := map[int]int{}
	for i := range sys.SoC.Clusters {
		m[i] = sys.SoC.Clusters[i].MinMHz()
	}
	return &Static{sys: sys, MHz: m}
}

// NewUserspace pins each cluster to an explicit frequency.
func NewUserspace(sys *sched.System, mhz map[int]int) *Static {
	return &Static{sys: sys, MHz: mhz}
}

// Start applies the pinned frequencies once.
func (s *Static) Start() {
	for i := range s.sys.SoC.Clusters {
		mhz, ok := s.MHz[i]
		if !ok {
			mhz = s.sys.SoC.Clusters[i].MaxMHz()
		}
		s.sys.SetClusterFreq(i, mhz)
	}
}
