// Package governor implements the CPU frequency governors from §IV-C of the
// paper. The centerpiece is the interactive governor (Algorithm 2): at every
// sampling period (default 20 ms) it reads each online core's utilization
// since the last sample, computes a target frequency freq·util/targetLoad,
// jumps to a preset hispeed frequency on load spikes, and — because each
// cluster shares one clock (§II) — programs every cluster to the maximum of
// its cores' targets.
//
// The ondemand, conservative and PAST governors the study compares it with
// run the same loop: one Sampler serves all four, and each constructor
// supplies only its per-core policy. Performance, powersave, and userspace
// governors are provided as static baselines.
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
}

// DefaultInteractive returns the paper's baseline governor parameters.
func DefaultInteractive() InteractiveConfig {
	return InteractiveConfig{SampleMs: 20, TargetLoad: 70, DownThreshold: 45}
}

// Sampler is the load-tracking governor loop that interactive, ondemand,
// conservative and PAST share: every sample period it reads each online
// core's utilization since the last sample, asks its policy for that core's
// target frequency, and programs each cluster to the maximum of its cores'
// targets. Each constructor supplies only the policy.
//
// The sampler reports to the system's observers: a KindGovernor event to
// sys.Tel for every frequency change decision, carrying the triggering
// utilization (Value, percent) and the policy's reason, and a decision span
// to sys.Xray with each online core's utilization and per-core target (the
// candidates; the cluster takes the max), the thresholds compared, and the
// reason. Nil observers cost one pointer check per sample.
type Sampler struct {
	// cfg holds the tunables, fixed at construction.
	cfg      InteractiveConfig
	sys      *sched.System
	pol      policy
	sample   event.Time
	sampleFn event.Handler // cached method value: evaluating g.onSample allocates
	sampleEv event.Handle  // the pending sample (retained for snapshot capture)
	lastBusy []event.Time
	// xrayCands is the scratch candidate buffer, reused across samples so
	// tracing only allocates when a span is actually recorded. A span's
	// inputs are xrayIn[:nIn]: max_util_pct, then the policy's thresholds.
	xrayCands []xray.Candidate
	xrayIn    [4]xray.Input
	nIn       int
}

// policy is what one load-tracking governor adds to the sampling loop. Its
// functions take the sampler as an argument, so binding one allocates
// nothing.
type policy struct {
	reason string // names every frequency change, unless step does
	// target is one core's target frequency at utilization util, with its
	// cluster cl at curMHz.
	target func(g *Sampler, cl *platform.Cluster, curMHz int, util float64) int
	// step, when non-nil, sees every change of cluster ci from prevMHz to
	// mhz and names its reason.
	step func(g *Sampler, ci, prevMHz, mhz int) string
}

func newSampler(sys *sched.System, cfg InteractiveConfig, pol policy) *Sampler {
	if cfg.SampleMs <= 0 {
		cfg.SampleMs = 20
	}
	g := &Sampler{
		cfg:      cfg,
		sys:      sys,
		pol:      pol,
		sample:   event.Time(cfg.SampleMs) * event.Millisecond,
		lastBusy: make([]event.Time, len(sys.SoC.Cores)),
		xrayIn:   [4]xray.Input{{Name: "max_util_pct"}},
		nIn:      1,
	}
	g.sampleFn = g.onSample
	return g
}

// NewInteractive attaches an interactive governor to sys. Call Start to
// begin sampling.
func NewInteractive(sys *sched.System, cfg InteractiveConfig) *Sampler {
	if cfg.TargetLoad <= 0 || cfg.TargetLoad > 100 {
		cfg.TargetLoad = 70
	}
	if cfg.DownThreshold <= 0 {
		cfg.DownThreshold = 45
	}
	g := newSampler(sys, cfg, policy{target: (*Sampler).coreTarget, step: (*Sampler).interactiveStep})
	g.xrayIn[1] = xray.Input{Name: "target_load", Value: float64(cfg.TargetLoad)}
	g.xrayIn[2] = xray.Input{Name: "down_threshold", Value: float64(cfg.DownThreshold)}
	g.xrayIn[3].Name = "hispeed_mhz"
	g.nIn = 4
	return g
}

// NewOndemand builds the classic Linux ondemand governor: jump straight to
// the maximum frequency when utilization exceeds 80%, otherwise set the
// lowest frequency that keeps utilization under that threshold. Fast
// reaction, jumpy power.
func NewOndemand(sys *sched.System, sampleMs int) *Sampler {
	const up = 0.80
	return newSampler(sys, InteractiveConfig{SampleMs: sampleMs}, policy{reason: "ondemand",
		target: func(_ *Sampler, cl *platform.Cluster, cur int, util float64) int {
			if util > up {
				return cl.MaxMHz()
			}
			// Proportional down-scaling with the same headroom.
			return int(float64(cur) * util / up)
		}})
}

// NewConservative builds the Linux conservative governor: frequency moves
// one 100 MHz table step at a time — up above 80% utilization, down below
// 35%. Smooth power, slow reaction.
func NewConservative(sys *sched.System, sampleMs int) *Sampler {
	const up, down = 0.80, 0.35
	return newSampler(sys, InteractiveConfig{SampleMs: sampleMs}, policy{reason: "conservative",
		target: func(_ *Sampler, cl *platform.Cluster, cur int, util float64) int {
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
		}})
}

// NewPAST builds Weiser et al.'s PAST policy (§IV-D cites it as the
// precursor of the interactive governor): the next interval is assumed to
// repeat the previous one, and the speed is set so that the predicted work
// just fits — i.e. target = current_speed × utilization, with a small
// headroom so minor increases do not immediately saturate.
func NewPAST(sys *sched.System, sampleMs int) *Sampler {
	const headroom = 0.9 // run the predicted load at 90% utilization
	return newSampler(sys, InteractiveConfig{SampleMs: sampleMs}, policy{reason: "past",
		target: func(_ *Sampler, _ *platform.Cluster, cur int, util float64) int {
			return int(float64(cur) * util / headroom)
		}})
}

// Start schedules the periodic sampling.
func (g *Sampler) Start() {
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

func (g *Sampler) onSample(now event.Time) {
	g.sys.SyncAll(now)
	tel, xr := g.sys.Tel, g.sys.Xray
	for ci := range g.sys.SoC.Clusters {
		cl := &g.sys.SoC.Clusters[ci]
		cur := cl.CurMHz
		target := 0
		maxUtil := 0.0
		if xr != nil {
			g.xrayCands = g.xrayCands[:0]
		}
		for _, id := range cl.CoreIDs {
			if !g.sys.SoC.Cores[id].Online {
				if xr != nil {
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
			t := g.pol.target(g, cl, cur, util)
			if t > target {
				target = t
			}
			if xr != nil {
				g.xrayCands = append(g.xrayCands, xray.Candidate{
					Core: id, Type: g.sys.SoC.Cores[id].Type.String(),
					QueueLen: g.sys.QueueLen(id), Load: 100 * util, TargetMHz: t,
				})
			}
		}
		if target == 0 {
			target = cl.MinMHz()
		}
		if target == cur {
			continue
		}
		mhz := g.sys.SetClusterFreq(ci, target)
		if mhz == cur {
			continue
		}
		reason := g.pol.reason
		if g.pol.step != nil {
			reason = g.pol.step(g, ci, cur, mhz)
		}
		if tel != nil {
			tel.Emit(telemetry.Event{
				At: now, Kind: telemetry.KindGovernor,
				Task: -1, Core: -1, FromCore: -1, Cluster: ci,
				PrevMHz: cur, MHz: mhz,
				Reason: reason, Value: 100 * maxUtil,
			})
		}
		if xr != nil {
			g.xrayIn[0].Value = 100 * maxUtil
			xr.FreqStep(now, ci, cur, mhz,
				xr.Choice("cluster%d %d -> %d MHz", [3]int{ci, cur, mhz}, [2]string{}), reason,
				g.xrayIn[:g.nIn], markGovernorChoice(g.xrayCands, target))
		}
	}
	g.sampleEv = g.sys.Eng.After(g.sample, g.sampleFn)
}

// interactiveStep is interactive's step: it fills the hispeed_mhz x-ray
// input and names the change a hispeed jump (from below hispeed to at least
// it), a scale-up, or a scale-down.
func (g *Sampler) interactiveStep(ci, prevMHz, mhz int) string {
	hs := hispeed(g.sys.SoC.Clusters[ci].Type)
	g.xrayIn[3].Value = float64(hs)
	if mhz < prevMHz {
		return telemetry.ReasonScaleDown
	}
	if prevMHz < hs && mhz >= hs {
		return telemetry.ReasonHispeed
	}
	return telemetry.ReasonScaleUp
}

// markGovernorChoice marks, in place in the scratch candidate buffer, the
// first core whose per-core target equals the cluster's winning target as
// chosen and rejects the rest: the cluster shares one clock, so every lower
// per-core demand is overridden by the max. It returns the buffer, which the
// tracer copies when it records the span.
func markGovernorChoice(out []xray.Candidate, target int) []xray.Candidate {
	// Prefer the core whose target exactly equals the programmed frequency;
	// when the clamp overrode the raw max, fall back to the highest per-core
	// demand as the driving core.
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

// hispeed is interactive's preset jump frequency for a cluster of type t.
// The tiny cluster runs at one frequency, so its preset never moves it.
func hispeed(t platform.CoreType) int {
	switch t {
	case platform.Big:
		return 1500
	case platform.Tiny:
		return 500
	default:
		return 1000
	}
}

// coreTarget applies Algorithm 2 for one core.
func (g *Sampler) coreTarget(cl *platform.Cluster, curMHz int, util float64) int {
	utilPct := int(util*100 + 0.5)
	targetFreq := int(float64(curMHz) * util * 100 / float64(g.cfg.TargetLoad))
	switch {
	case utilPct > g.cfg.TargetLoad:
		hs := hispeed(cl.Type)
		if curMHz < hs {
			return hs
		}
		return targetFreq
	case utilPct < g.cfg.DownThreshold:
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
