// Package core assembles the full simulated platform — SoC, power model, HMP
// scheduler, frequency governor, application workload, and the 10 ms metric
// sampler — and runs one experiment, producing a Result with every metric
// the paper reports: TLP and core-usage decomposition (Tables III/IV),
// efficiency states (Table V), frequency residency (Figures 9/10), average
// system power, and the app's latency or FPS performance.
package core

import (
	"biglittle/internal/apps"
	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/metrics"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/profile"
	"biglittle/internal/sched"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/xray"
)

// SchedulerKind selects the thread-to-core mapping policy (§IV-A).
type SchedulerKind int

const (
	// HMP is the commercial utilization-based scheduler (Algorithm 1).
	HMP SchedulerKind = iota
	// EfficiencyBased maps the top-N threads by big-core speedup to the N
	// big cores (Kumar et al.).
	EfficiencyBased
	// ParallelismAware uses big cores for serial phases and little cores
	// when parallelism is abundant (Saez et al.).
	ParallelismAware
	// EAS places each task on the cluster with the lowest modeled energy
	// per unit of work — the policy that replaced HMP in mainline Linux.
	EAS
)

func (k SchedulerKind) String() string {
	switch k {
	case EfficiencyBased:
		return "efficiency"
	case ParallelismAware:
		return "parallelism"
	case EAS:
		return "eas"
	default:
		return "hmp"
	}
}

// GovernorKind selects the DVFS policy for a run.
type GovernorKind int

const (
	// Interactive is the paper's default load-tracking governor.
	Interactive GovernorKind = iota
	// Performance pins all clusters at maximum frequency.
	Performance
	// Powersave pins all clusters at minimum frequency.
	Powersave
	// Userspace pins clusters at Config.PinnedMHz.
	Userspace
	// Ondemand is the classic Linux governor: jump to max above the
	// threshold, proportional otherwise.
	Ondemand
	// Conservative steps the frequency one table entry at a time.
	Conservative
	// PAST is Weiser et al.'s policy, the interactive governor's precursor
	// (§IV-D).
	PAST
)

func (k GovernorKind) String() string {
	switch k {
	case Performance:
		return "performance"
	case Powersave:
		return "powersave"
	case Userspace:
		return "userspace"
	case Ondemand:
		return "ondemand"
	case Conservative:
		return "conservative"
	case PAST:
		return "past"
	default:
		return "interactive"
	}
}

// Config describes one simulation run. The zero value is not runnable; use
// DefaultConfig and override fields.
type Config struct {
	App      apps.App
	Seed     int64
	Duration event.Time

	// Phases, when set, makes the run a session: the phases' apps run in
	// turn on the one platform, and Result.Phases reports a row per phase.
	// Normalized sets Duration to their sum, and App is unused.
	Phases []Phase

	Knobs

	// Observers are the run's pure observers, all nil by default (see
	// Observers).
	Observers

	// OnSystem, if set, is called with the assembled scheduler system right
	// before the workload is built — an extension point for attaching trace
	// recorders or custom policies. Its tick subscribers run after the
	// observers'.
	OnSystem func(sys *sched.System)
}

// Phase is one app segment of a session's schedule. Its Duration must be
// positive; assembling a session with any other panics.
type Phase struct {
	App      apps.App
	Duration event.Time
}

// Knobs are a run's platform and policy knobs: the hotplug configuration
// (§V-C), HMP thresholds and governor tunables (§VI-C) the paper sweeps, and
// the policies, power model, SoC and thermal envelope. Config, the lab
// fingerprint and the fleet wire spec all embed them, so a new knob reaches
// the cache key and the wire by construction.
// The JSON names and the field order are part of every fingerprint.
type Knobs struct {
	// Cores is the hotplug configuration (default L4+B4).
	Cores platform.CoreConfig `json:"cores"`

	Sched sched.Config `json:"sched"`
	// Scheduler selects the mapping policy; HMP is the paper's baseline.
	Scheduler SchedulerKind `json:"scheduler"`
	Governor  GovernorKind  `json:"governor"`
	// Gov is read whole by interactive; ondemand, conservative and PAST
	// read only its SampleMs; performance, powersave and userspace read
	// none of it (see Effective).
	Gov governor.InteractiveConfig `json:"gov"`
	// PinnedMHz maps cluster ID to frequency. Only Userspace reads it.
	PinnedMHz map[int]int `json:"pinned_mhz,omitempty"`

	Power power.Params `json:"power"`

	// Platform names the SoC preset platform.ByName builds. Empty selects
	// the Exynos 5422, or its tiny-extended variant when Cores.Tiny > 0.
	// Pair a non-default platform with matching Power parameters.
	Platform string `json:"platform,omitempty"`

	// Thermal, when non-nil, enables the per-cluster thermal model and its
	// throttling governor.
	Thermal *thermal.Params `json:"thermal,omitempty"`
}

// Observers are the pure observers a run can carry. Each is nil by default,
// which disables it at the cost of a pointer check per hook site; an
// observed run produces byte-identical results. Assemble sets Telemetry,
// Profiler and Xray once, on the scheduler system before it starts; the
// governor, the metrics sampler, the thermal model and any trace recorder
// read them from the system when they emit. Check attaches right after the
// metrics sampler starts and Digest last, so they subscribe to the scheduler
// tick in that order, ahead of any OnSystem hook. A Check on a run without
// Telemetry installs its own one-event collector on the system, so every
// subsystem's events then reach the auditor's event hook. On a session they
// span every phase.
type Observers struct {
	// Telemetry, when non-nil, is attached to every subsystem: the scheduler
	// emits migration/wake/preempt/boost events, the governor its frequency
	// decisions, the thermal model throttle steps, hotplug transitions are
	// recorded, and the 10 ms sampler publishes power snapshots. Latency and
	// frame-time distributions land in the "latency_ms" and "frame_time_ms"
	// histograms.
	Telemetry *telemetry.Collector

	// Profiler, when non-nil, attributes the run to individual tasks:
	// run/wait/sleep time split by core type, per-(core type, MHz) frequency
	// residency, each power interval's energy split across the tasks that
	// ran in it, and migration accounting. Result.Profile carries the final
	// snapshot of a run.
	Profiler *profile.Profiler

	// Xray, when non-nil, is the causal decision tracer: the scheduler
	// records every wake placement and migration with its full candidate set
	// and rejection reasons, the governor every frequency step with the
	// per-core demands, the thermal model every cap step, and hotplug
	// transitions — all causally linked into walkable chains (see
	// internal/xray).
	Xray *xray.Tracer

	// Check, when non-nil, is a runtime invariant auditor (see
	// internal/check): it continuously verifies conservation laws — legal
	// cluster frequencies, the little-core hotplug constraint, time and
	// energy accounting — and its Finish hook reconciles the end-of-run
	// totals.
	Check Checker

	// Digest, when non-nil, folds a rolling hash of simulator state into
	// chained per-window digests at every scheduler tick (see
	// internal/delta): the run's fingerprint, and the substrate the
	// first-divergence finder bisects when two configs are compared.
	Digest *delta.Recorder
}

// Checker is the runtime invariant auditor hook. *check.Auditor implements
// it; the interface is declared structurally here so internal/check can
// depend on this package's Result without an import cycle.
type Checker interface {
	// Attach installs the checker on the assembled system. Assemble calls it
	// immediately after the metrics sampler starts (and before the thermal
	// model or any workload is built), so the checker's sampling events fire
	// right after the sampler's at every shared timestamp.
	Attach(sys *sched.System, pw power.Params)
	// Finish runs end-of-run reconciliation against the metered energy.
	Finish(elapsed event.Time, meterMJ float64)
}

// DefaultConfig returns the paper's baseline system configuration for app.
func DefaultConfig(app apps.App) Config {
	return Config{App: app, Seed: 1, Duration: 30 * event.Second, Knobs: DefaultKnobs()}
}

// DefaultKnobs returns the paper's baseline platform: L4+B4 on the Exynos
// 5422 under HMP and the interactive governor, with the default power model.
func DefaultKnobs() Knobs {
	return Knobs{
		Cores:    platform.Baseline(),
		Sched:    sched.DefaultConfig(),
		Governor: Interactive,
		Gov:      governor.DefaultInteractive(),
		Power:    power.Default(),
	}
}

// Result holds every metric collected from one run.
type Result struct {
	App       string
	Metric    apps.Metric
	Duration  event.Time
	Cores     platform.CoreConfig
	Scheduler SchedulerKind

	TLP    metrics.TLPReport
	Matrix [5][5]float64
	Eff    [6]float64
	// TinyActivePct is the share of active core-samples served by tiny
	// cores (tiny-core extension platform only).
	TinyActivePct float64
	// AvgLittleUtil / AvgBigUtil are the mean utilizations of the online
	// cores of each cluster over the whole run — the quantity behind the
	// paper's "mobile applications have low CPU utilization".
	AvgLittleUtil float64
	AvgBigUtil    float64

	// Residency indexes match the cluster frequency tables.
	LittleFreqs     []int
	BigFreqs        []int
	LittleResidency []float64
	BigResidency    []float64

	AvgPowerMW float64
	EnergyMJ   float64

	// Latency metrics (latency-oriented apps).
	Interactions int
	MeanLatency  event.Time
	TotalLatency event.Time
	WorstLatency event.Time

	// FPS metrics (FPS-oriented apps).
	Frames int
	AvgFPS float64
	MinFPS float64

	// Scheduler counters.
	HMPMigrations int
	// TotalWorkGc is the total executed work in giga-cycles across all
	// tasks — a throughput measure for workloads without a latency/FPS
	// metric (e.g. stress tests).
	TotalWorkGc float64
	// TaskStats breaks execution and attributed energy down per thread,
	// sorted by energy descending.
	TaskStats []TaskStat

	// Sustained-performance metrics (FPS apps): average FPS over the first
	// and second halves of the run — they diverge under thermal throttling.
	FPSFirstHalf  float64
	FPSSecondHalf float64
	// Thermal metrics (zero unless Config.Thermal was set).
	MaxTempC     float64
	ThrottledPct float64

	// Profile is the per-task attribution snapshot (nil unless
	// Config.Profiler was set).
	Profile *profile.Snapshot

	// Phases holds a session's rows in schedule order (nil for one app). A
	// session leaves App and the per-app performance fields zero.
	Phases []PhaseResult `json:",omitempty"`
}

// PhaseResult is one session phase's row: its energy and Galaxy S5 battery
// drain, its app's performance, and the big cores' share of its activity.
type PhaseResult struct {
	App          string
	Duration     event.Time
	AvgPowerMW   float64
	EnergyJ      float64
	DrainPct     float64
	AvgFPS       float64
	Interactions int
	MeanLatency  event.Time
	BigPct       float64
}

// TaskStat is one thread's share of a run.
type TaskStat struct {
	Name       string
	EnergyJ    float64
	LittleMs   float64
	BigMs      float64
	TinyMs     float64
	Migrations int
}

// Normalized returns cfg with every zero-valued field resolved to the same
// default Run would apply, so a sparse config and its resolved twin compare
// (and fingerprint) identically; a session's Duration becomes its phases'
// sum. Knobs the governor never reads are left as they are; Knobs.Effective
// resets those, and the lab fingerprint applies both.
func (c Config) Normalized() Config {
	if len(c.Phases) > 0 {
		c.Duration = 0
		for _, ph := range c.Phases {
			c.Duration += ph.Duration
		}
	} else if c.Duration <= 0 {
		c.Duration = 30 * event.Second
	}
	if c.Cores == (platform.CoreConfig{}) {
		c.Cores = platform.Baseline()
	}
	if c.Sched == (sched.Config{}) {
		c.Sched = sched.DefaultConfig()
	}
	if c.Power == (power.Params{}) {
		c.Power = power.Default()
	}
	return c
}

// Run executes one simulation and gathers its Result. To capture the run
// part-way, step a NewSim with RunTo and Snapshot instead (DESIGN.md §9).
func Run(cfg Config) Result {
	cfg = cfg.Normalized()
	sim := newSim(cfg, nil)
	sim.RunTo(cfg.Duration)
	return sim.Finish()
}

// Performance returns the app's scalar performance for comparisons: frames
// per second for FPS apps, and interactions per second (inverse mean
// latency work rate) for latency apps — higher is better for both.
func (r Result) Performance() float64 {
	if r.Metric == apps.FPS {
		return r.AvgFPS
	}
	if r.MeanLatency <= 0 {
		return 0
	}
	return 1.0 / r.MeanLatency.Seconds()
}
