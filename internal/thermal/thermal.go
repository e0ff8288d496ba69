// Package thermal models per-cluster die temperature with a first-order RC
// model driven by the power model, and a throttling governor that caps a
// cluster's frequency when it trips — the mechanism behind the sustained-
// performance drop every passively-cooled phone exhibits. The Exynos 5422
// in the paper's Galaxy S5 throttles its A15 cluster aggressively under
// sustained gaming load; the paper's 30-second runs largely avoid it, and
// this package quantifies what longer runs would have seen.
package thermal

import (
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/xray"
)

// Params configures the thermal model.
type Params struct {
	// AmbientC is the ambient (and initial die) temperature.
	AmbientC float64
	// ResistanceCPerW converts cluster power to steady-state temperature
	// rise above ambient.
	ResistanceCPerW float64
	// TimeConstant is the RC time constant of the die+package.
	TimeConstant event.Time
	// TripC engages throttling; ClearC disengages it.
	TripC  float64
	ClearC float64
	// CriticalC hotplugs big cores offline one per sample until the
	// temperature recovers (0 disables).
	CriticalC float64
	// SampleMs is the polling period of the thermal governor.
	SampleMs int
}

// Default returns parameters tuned so a fully-loaded big cluster at maximum
// frequency trips in roughly 10-15 seconds — the behaviour reported for
// Exynos 5422 devices under sustained load.
func Default() Params {
	return Params{
		AmbientC:        28,
		ResistanceCPerW: 20,
		TimeConstant:    6 * event.Second,
		TripC:           68,
		ClearC:          60,
		CriticalC:       85,
		SampleMs:        50,
	}
}

// Model tracks per-cluster temperature and applies throttling.
//
// It reports every cap step to the system's observers: a KindThrottle event
// to sys.Tel (Reason throttle/release, MHz the new cap with 0 = fully
// released, Value the cluster temperature), and a decision span to sys.Xray
// with the cluster temperature against the trip/clear points, the watts that
// drove it, and the previous cap, linked causally to the cluster's last
// governor step. Emergency hotplug transitions are emitted by
// sched.SetCoreOnline as KindHotplug events. Nil observers cost one pointer
// check per step.
type Model struct {
	Par Params

	sys      *sched.System
	pw       power.Params
	sample   event.Time
	sampleFn event.Handler // cached method value: evaluating m.onSample allocates
	sampleEv event.Handle  // the pending sample (retained for snapshot capture)
	lastBusy []event.Time
	lastDeep []event.Time

	// TempC holds current per-cluster temperatures.
	TempC []float64
	// MaxTempC records the hottest any cluster got.
	MaxTempC float64
	// ThrottledNs accumulates time with any cluster capped below max.
	ThrottledNs event.Time
	// Events counts cap adjustments.
	Events int
	// HotplugEvents counts emergency core offline/online transitions.
	HotplugEvents int
}

// Attach installs a thermal model on sys; call Start to begin sampling.
func Attach(sys *sched.System, pw power.Params, par Params) *Model {
	if par.SampleMs <= 0 {
		par.SampleMs = 50
	}
	m := &Model{
		Par:      par,
		sys:      sys,
		pw:       pw,
		sample:   event.Time(par.SampleMs) * event.Millisecond,
		lastBusy: make([]event.Time, len(sys.SoC.Cores)),
		lastDeep: make([]event.Time, len(sys.SoC.Cores)),
		TempC:    make([]float64, len(sys.SoC.Clusters)),
	}
	for i := range m.TempC {
		m.TempC[i] = par.AmbientC
	}
	m.MaxTempC = par.AmbientC
	m.sampleFn = m.onSample
	return m
}

// Start schedules the periodic thermal sampling.
func (m *Model) Start() {
	m.sampleEv = m.sys.Eng.After(m.sample, m.sampleFn)
}

func (m *Model) onSample(now event.Time) {
	m.sys.SyncAll(now)
	soc := m.sys.SoC
	dt := m.sample.Seconds()
	alpha := dt / m.Par.TimeConstant.Seconds()
	if alpha > 1 {
		alpha = 1
	}

	throttledNow := false
	for ci := range soc.Clusters {
		cl := &soc.Clusters[ci]
		// Cluster power from per-core utilization over the last sample.
		var watts float64
		for _, id := range cl.CoreIDs {
			if !soc.Cores[id].Online {
				continue
			}
			busy := m.sys.BusyNs(id)
			util := sched.CoreBusyFraction(m.lastBusy[id], busy, m.sample)
			m.lastBusy[id] = busy
			deep := m.sys.DeepIdleNs(id)
			deepFrac := sched.CoreBusyFraction(m.lastDeep[id], deep, m.sample)
			m.lastDeep[id] = deep
			watts += m.pw.CorePowerDeepMW(cl.Type, cl.CurMHz, util, deepFrac) / 1000
		}
		target := m.Par.AmbientC + watts*m.Par.ResistanceCPerW
		m.TempC[ci] += alpha * (target - m.TempC[ci])
		if m.TempC[ci] > m.MaxTempC {
			m.MaxTempC = m.TempC[ci]
		}

		// Throttling governor: step the cap down two table entries past the
		// trip point, release one entry at a time once cooled.
		switch {
		case m.TempC[ci] > m.Par.TripC:
			cur := cl.CapMHz
			if cur == 0 {
				cur = cl.MaxMHz()
			}
			newCap := cl.ClampDownMHz(cur - 200)
			if newCap != cur {
				cl.CapMHz = newCap
				m.sys.SetClusterFreq(ci, cl.CurMHz) // re-clamp under the new cap
				m.Events++
				if tel := m.sys.Tel; tel != nil {
					tel.Emit(telemetry.Event{
						At: now, Kind: telemetry.KindThrottle,
						Task: -1, Core: -1, FromCore: -1, Cluster: ci,
						MHz: newCap, Reason: telemetry.ReasonThrottle, Value: m.TempC[ci],
					})
				}
				if xr := m.sys.Xray; xr != nil {
					xr.Throttle(now, ci, newCap,
						xr.Choice("cap cluster%d at %d MHz", [3]int{ci, newCap}, [2]string{}),
						telemetry.ReasonThrottle,
						[]xray.Input{
							{Name: "temp_c", Value: m.TempC[ci]},
							{Name: "trip_c", Value: m.Par.TripC},
							{Name: "clear_c", Value: m.Par.ClearC},
							{Name: "watts", Value: watts},
							{Name: "prev_cap_mhz", Value: float64(cur)},
						})
				}
			}
		case m.TempC[ci] < m.Par.ClearC && cl.CapMHz > 0:
			newCap := cl.CapMHz + 100
			if newCap >= cl.MaxMHz() {
				cl.CapMHz = 0 // fully released
			} else {
				cl.CapMHz = newCap
			}
			m.Events++
			if tel := m.sys.Tel; tel != nil {
				tel.Emit(telemetry.Event{
					At: now, Kind: telemetry.KindThrottle,
					Task: -1, Core: -1, FromCore: -1, Cluster: ci,
					MHz: cl.CapMHz, Reason: telemetry.ReasonRelease, Value: m.TempC[ci],
				})
			}
			if xr := m.sys.Xray; xr != nil {
				var choice string
				if cl.CapMHz == 0 {
					choice = xr.Choice("release cluster%d cap", [3]int{ci}, [2]string{})
				} else {
					choice = xr.Choice("raise cluster%d cap to %d MHz", [3]int{ci, cl.CapMHz}, [2]string{})
				}
				xr.Throttle(now, ci, cl.CapMHz, choice, telemetry.ReasonRelease,
					[]xray.Input{
						{Name: "temp_c", Value: m.TempC[ci]},
						{Name: "trip_c", Value: m.Par.TripC},
						{Name: "clear_c", Value: m.Par.ClearC},
						{Name: "watts", Value: watts},
					})
			}
		}
		if cl.CapMHz > 0 && cl.CapMHz < cl.MaxMHz() {
			throttledNow = true
		}

		// Emergency hotplug for the big cluster: shed one core per sample
		// above the critical temperature, restore one once fully cooled.
		if m.Par.CriticalC > 0 && cl.Type == platform.Big {
			online, last := 0, -1 // online big cores, and the highest-numbered one
			for _, id := range cl.CoreIDs {
				if soc.Cores[id].Online {
					online++
					last = max(last, id)
				}
			}
			switch {
			case m.TempC[ci] > m.Par.CriticalC && online > 0:
				if err := m.sys.SetCoreOnline(last, false); err == nil {
					m.HotplugEvents++
				}
			case m.TempC[ci] < m.Par.ClearC && online < len(cl.CoreIDs):
				for _, id := range cl.CoreIDs {
					if !soc.Cores[id].Online {
						if err := m.sys.SetCoreOnline(id, true); err == nil {
							m.HotplugEvents++
						}
						break
					}
				}
			}
		}
	}
	if throttledNow {
		m.ThrottledNs += m.sample
	}
	m.sampleEv = m.sys.Eng.After(m.sample, m.sampleFn)
}

// ThrottledPct returns the share of elapsed time with a throttle cap
// engaged.
func (m *Model) ThrottledPct(elapsed event.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(m.ThrottledNs) / float64(elapsed)
}
