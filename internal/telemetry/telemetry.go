// Package telemetry is the simulator's event-level observability layer: a
// near-zero-overhead event bus plus a metrics registry (counters, gauges,
// histograms) that every subsystem publishes into. Where internal/trace
// samples *state* once per scheduler tick, telemetry records *transitions*
// as they happen — each migration with its reason, each governor frequency
// decision with the load that triggered it, each hotplug, throttle, and
// boost — so sub-tick events are never missed and "how many, why, and when"
// has an exact answer.
//
// The disabled path is a nil Collector: every subsystem holds a
// *Collector that defaults to nil and guards emission with a single
// pointer check, so runs without telemetry pay essentially nothing
// (BenchmarkTelemetryOff in the root package quantifies it).
//
// Concurrency: the event bus (Emit, Events, Summary's event aggregates) is
// single-threaded, like the simulator that feeds it. The named-metric
// registry, however, is goroutine-safe — Counter/Gauge lookup and updates
// may run from parallel lab workers while an exporter (WritePrometheus,
// JSON) reads, which is exactly what blserve and a verbose sweep do.
// Histograms are registered under the same lock but their observations
// remain single-writer (Quantile sorts in place).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"biglittle/internal/event"
	"biglittle/internal/ring"
)

// Kind classifies a telemetry event.
type Kind int

const (
	// KindMigration: a task moved between cores (Reason says why).
	KindMigration Kind = iota
	// KindWake: a sleeping task was placed on a core.
	KindWake
	// KindPreempt: a running task's round-robin slice expired.
	KindPreempt
	// KindBoost: a task's load was raised by the input booster.
	KindBoost
	// KindFreq: a cluster's frequency actually changed (any cause —
	// governor, touch kick, thermal re-clamp).
	KindFreq
	// KindGovernor: a DVFS governor decided to change frequency; Value
	// carries the triggering utilization (percent).
	KindGovernor
	// KindHotplug: a core went online or offline.
	KindHotplug
	// KindThrottle: the thermal governor stepped a cluster's frequency cap.
	KindThrottle
	// KindPower: a periodic whole-system power-meter snapshot (Value in mW).
	KindPower
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindMigration:
		return "migration"
	case KindWake:
		return "wake"
	case KindPreempt:
		return "preempt"
	case KindBoost:
		return "boost"
	case KindFreq:
		return "freq"
	case KindGovernor:
		return "governor"
	case KindHotplug:
		return "hotplug"
	case KindThrottle:
		return "throttle"
	case KindPower:
		return "power"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds returns every event kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Event reasons. Interned constants so emission never allocates strings.
const (
	// Migration reasons.
	ReasonUpThreshold   = "up-threshold"   // HMP load above the up-threshold
	ReasonDownThreshold = "down-threshold" // HMP load below the down-threshold
	ReasonBalance       = "balance"        // intra-cluster idle pull
	ReasonPolicy        = "policy"         // MigrateHook policy (altsched)
	ReasonHotplug       = "hotplug"        // eviction from an offlining core
	// Wake reasons.
	ReasonDeepIdle = "deep-idle" // wake paid a deep-idle exit latency
	// Preempt reasons.
	ReasonSlice = "slice-expired"
	// Governor reasons.
	ReasonHispeed   = "hispeed"
	ReasonScaleUp   = "scale-up"
	ReasonScaleDown = "scale-down"
	// Throttle reasons.
	ReasonThrottle = "throttle"
	ReasonRelease  = "release"
	// Hotplug reasons.
	ReasonOnline  = "online"
	ReasonOffline = "offline"
)

// Event is one recorded occurrence. Fields that do not apply to a kind are
// left at -1 (identifiers) or zero (values); see the Kind constants for
// which fields each kind fills.
type Event struct {
	At   event.Time `json:"at"`
	Kind Kind       `json:"kind"`
	// Task/TaskName identify the subject task (migration, wake, preempt,
	// boost); Task is -1 otherwise.
	Task     int    `json:"task"`
	TaskName string `json:"task_name,omitempty"`
	// Core is the destination/affected core; FromCore the origin (-1 when
	// not applicable).
	Core     int `json:"core"`
	FromCore int `json:"from_core"`
	// Cluster is the affected cluster (freq, governor, throttle), else -1.
	Cluster int `json:"cluster"`
	// MHz/PrevMHz are the new and previous frequency (freq, governor) or
	// the new cap (throttle, 0 = released).
	MHz     int `json:"mhz,omitempty"`
	PrevMHz int `json:"prev_mhz,omitempty"`
	// Reason says why the event happened (one of the Reason constants).
	Reason string `json:"reason,omitempty"`
	// Value is kind-specific: tracked load (migration, wake, boost),
	// triggering utilization percent (governor), temperature °C (throttle),
	// system power mW (power).
	Value float64 `json:"value,omitempty"`
}

// DefaultMaxEvents bounds the in-memory event buffer (~10 MB of events).
// Counters, reason tallies, and the frequency-transition histogram stay
// exact even after the buffer starts dropping its oldest entries.
const DefaultMaxEvents = 100_000

type reasonKey struct {
	Kind   Kind
	Reason string
}

type freqKey struct {
	Cluster, MHz int
}

// Collector is the event bus and metrics registry for one run. A nil
// *Collector is valid everywhere and disables all recording: every method
// is safe to call on nil, which is the telemetry-off fast path.
type Collector struct {
	// MaxEvents caps the event ring buffer (DefaultMaxEvents when zero;
	// negative means unbounded). Aggregates are exact regardless.
	MaxEvents int

	// OnEvent, if set, additionally receives every emitted event — a
	// streaming subscriber for exporters that do not want buffering.
	OnEvent func(Event)

	events ring.Ring[Event]

	counts  [numKinds]int64
	reasons map[reasonKey]int64
	freq    map[freqKey]int64 // per-(cluster, target MHz) transition counts

	// regMu guards the named-metric registry maps below. Counters and
	// gauges themselves are atomic, so registered metrics can be updated
	// from parallel workers while an exporter iterates under the read lock.
	regMu    sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewCollector returns a Collector with the default event-buffer bound.
func NewCollector() *Collector {
	return &Collector{
		reasons:  map[reasonKey]int64{},
		freq:     map[freqKey]int64{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Enabled reports whether the collector records anything (false for nil).
func (c *Collector) Enabled() bool { return c != nil }

// Emit records one event: aggregates always, the event buffer up to
// MaxEvents (oldest entries dropped beyond that). Once the buffer is full,
// and every (kind, reason) and frequency seen before, Emit allocates
// nothing. Safe on nil.
func (c *Collector) Emit(ev Event) {
	if c == nil {
		return
	}
	if ev.Kind >= 0 && ev.Kind < numKinds {
		c.counts[ev.Kind]++
	}
	if ev.Reason != "" {
		if c.reasons == nil {
			c.reasons = map[reasonKey]int64{}
		}
		c.reasons[reasonKey{ev.Kind, ev.Reason}]++
	}
	if ev.Kind == KindFreq {
		if c.freq == nil {
			c.freq = map[freqKey]int64{}
		}
		c.freq[freqKey{ev.Cluster, ev.MHz}]++
	}
	*c.events.Next(c.MaxEvents, DefaultMaxEvents) = ev
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}

// Events returns the buffered events in emission order, as a copy that
// later events never change.
func (c *Collector) Events() []Event {
	if c == nil || c.events.Len() == 0 {
		return nil
	}
	out := make([]Event, c.events.Len())
	for i := range out {
		out[i] = *c.events.At(i)
	}
	return out
}

// Dropped returns how many events fell out of the bounded buffer.
func (c *Collector) Dropped() int {
	if c == nil {
		return 0
	}
	return c.events.Dropped()
}

// Count returns the exact number of events of kind emitted so far.
func (c *Collector) Count(k Kind) int64 {
	if c == nil || k < 0 || k >= numKinds {
		return 0
	}
	return c.counts[k]
}

// CountReason returns the exact number of (kind, reason) events.
func (c *Collector) CountReason(k Kind, reason string) int64 {
	if c == nil {
		return 0
	}
	return c.reasons[reasonKey{k, reason}]
}

// TotalEvents returns the exact number of events emitted (buffered or not).
func (c *Collector) TotalEvents() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// HMPMigrations returns the number of inter-tier migrations visible to the
// scheduler's per-task counters: threshold moves plus policy moves, but not
// intra-cluster balance pulls or hotplug evictions. It matches
// core.Result.HMPMigrations on the same run (cross-validated by tests).
func (c *Collector) HMPMigrations() int64 {
	if c == nil {
		return 0
	}
	return c.reasons[reasonKey{KindMigration, ReasonUpThreshold}] +
		c.reasons[reasonKey{KindMigration, ReasonDownThreshold}] +
		c.reasons[reasonKey{KindMigration, ReasonPolicy}]
}

// FreqTransitions returns the exact per-(cluster, target MHz) transition
// counts for KindFreq events.
func (c *Collector) FreqTransitions() map[int]map[int]int64 {
	if c == nil {
		return nil
	}
	out := map[int]map[int]int64{}
	for k, n := range c.freq {
		if out[k.Cluster] == nil {
			out[k.Cluster] = map[int]int64{}
		}
		out[k.Cluster][k.MHz] = n
	}
	return out
}

// Counter returns (creating on first use) the named monotonic counter.
// Returns nil on a nil collector; Counter methods are nil-safe. Safe to
// call from concurrent goroutines.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.regMu.RLock()
	ctr := c.counters[name]
	c.regMu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.counters == nil {
		c.counters = map[string]*Counter{}
	}
	if ctr = c.counters[name]; ctr == nil {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns (creating on first use) the named last-value gauge. Safe to
// call from concurrent goroutines.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.regMu.RLock()
	g := c.gauges[name]
	c.regMu.RUnlock()
	if g != nil {
		return g
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.gauges == nil {
		c.gauges = map[string]*Gauge{}
	}
	if g = c.gauges[name]; g == nil {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named value distribution.
// Registration is goroutine-safe; observations are not (single writer).
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.regMu.RLock()
	h := c.hists[name]
	c.regMu.RUnlock()
	if h != nil {
		return h
	}
	c.regMu.Lock()
	defer c.regMu.Unlock()
	if c.hists == nil {
		c.hists = map[string]*Histogram{}
	}
	if h = c.hists[name]; h == nil {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count. All methods are nil-safe
// and goroutine-safe: parallel lab workers may increment the same counter
// while an exporter reads it.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by delta (negative deltas are ignored).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge holds the most recent value of a quantity. Nil-safe and
// goroutine-safe (last writer wins).
type Gauge struct {
	bits  atomic.Uint64 // math.Float64bits of the last value
	isSet atomic.Bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.isSet.Store(true)
}

// Value returns the last set value (0 if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Defined reports whether Set has ever been called; exporters use it to
// skip never-set gauges.
func (g *Gauge) Defined() bool { return g != nil && g.isSet.Load() }

// Histogram records a value distribution exactly (all observations kept;
// simulated runs are short enough that this is cheap and precise). Nil-safe.
type Histogram struct {
	vals   []float64
	sum    float64
	sorted bool
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.vals = append(h.vals, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	return len(h.vals)
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || len(h.vals) == 0 {
		return 0
	}
	return h.sum / float64(len(h.vals))
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[0]
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil || len(h.vals) == 0 {
		return 0
	}
	h.sort()
	return h.vals[len(h.vals)-1]
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank on the
// sorted observations; 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.vals) == 0 {
		return 0
	}
	h.sort()
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[len(h.vals)-1]
	}
	idx := int(q*float64(len(h.vals)-1) + 0.5)
	return h.vals[idx]
}

func (h *Histogram) sort() {
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
}

// Summary renders a per-run text report: event counts by kind with reason
// breakdowns, the migration rate over duration, the frequency-transition
// histogram per cluster, and percentiles for every registered histogram.
func (c *Collector) Summary(duration event.Time) string {
	if c == nil {
		return "telemetry: disabled (nil collector)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d events", c.TotalEvents())
	if c.Dropped() > 0 {
		fmt.Fprintf(&b, " (%d oldest dropped from the %d-entry buffer; aggregates exact)", c.Dropped(), c.events.Len())
	}
	b.WriteString("\n")

	for _, k := range Kinds() {
		if c.counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %6d", k, c.counts[k])
		var rs []string
		for rk, n := range c.reasons {
			if rk.Kind == k {
				rs = append(rs, fmt.Sprintf("%s %d", rk.Reason, n))
			}
		}
		if len(rs) > 0 {
			sort.Strings(rs)
			fmt.Fprintf(&b, "  (%s)", strings.Join(rs, ", "))
		}
		b.WriteString("\n")
	}

	if duration > 0 && c.Count(KindMigration) > 0 {
		fmt.Fprintf(&b, "migration rate: %.1f/s total, %.1f/s HMP (up/down/policy)\n",
			float64(c.Count(KindMigration))/duration.Seconds(),
			float64(c.HMPMigrations())/duration.Seconds())
	}

	if ft := c.FreqTransitions(); len(ft) > 0 {
		b.WriteString("freq transitions (cluster: targetMHz xCount):\n")
		var clusters []int
		for ci := range ft {
			clusters = append(clusters, ci)
		}
		sort.Ints(clusters)
		for _, ci := range clusters {
			var mhzs []int
			for mhz := range ft[ci] {
				mhzs = append(mhzs, mhz)
			}
			sort.Ints(mhzs)
			fmt.Fprintf(&b, "  cluster %d:", ci)
			for _, mhz := range mhzs {
				fmt.Fprintf(&b, " %d x%d", mhz, ft[ci][mhz])
			}
			b.WriteString("\n")
		}
	}

	c.regMu.RLock()
	defer c.regMu.RUnlock()
	if len(c.hists) > 0 {
		var names []string
		for name, h := range c.hists {
			if h.Count() > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			h := c.hists[name]
			fmt.Fprintf(&b, "%s: n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f min=%.2f max=%.2f\n",
				name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Min(), h.Max())
		}
	}

	var cnames []string
	for name, ctr := range c.counters {
		if ctr.Value() != 0 {
			cnames = append(cnames, name)
		}
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		fmt.Fprintf(&b, "counter %s: %d\n", name, c.counters[name].Value())
	}
	var gnames []string
	for name, g := range c.gauges {
		if g.Defined() {
			gnames = append(gnames, name)
		}
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		fmt.Fprintf(&b, "gauge %s: %.3f\n", name, c.gauges[name].Value())
	}
	return b.String()
}
