// Package biglittle is a simulation library for studying mobile interactive
// applications on asymmetric (big.LITTLE) multi-core platforms. It
// reproduces the system studied in "Big or Little: A Study of Mobile
// Interactive Applications on an Asymmetric Multi-core Platform" (IISWC
// 2015): an Exynos 5422-like SoC with four Cortex-A15 "big" and four
// Cortex-A7 "little" cores, the Linaro HMP scheduler, the interactive
// cpufreq governor, a calibrated whole-system power model, trace-driven
// Cortex-A7/A15 microarchitecture models with split L2 caches, and stochastic
// models of twelve mobile applications.
//
// The top-level entry points:
//
//   - Run executes one application on one platform configuration and
//     returns every metric the paper reports (TLP, core-usage matrices,
//     efficiency states, frequency residency, power, latency/FPS).
//   - The Fig*/Table*/Characterize/CoreConfigs/TuningStudy functions
//     regenerate each table and figure of the paper's evaluation.
//   - RunTrace drives the microarchitectural core models directly with
//     synthetic SPEC-like workloads.
//   - CustomApp builds new workloads from the same primitives the twelve
//     bundled application models use.
//
// Everything is deterministic for a fixed seed.
package biglittle

import (
	"biglittle/internal/apps"
	"biglittle/internal/battery"
	"biglittle/internal/check"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/profile"
	"biglittle/internal/sched"
	"biglittle/internal/session"
	"biglittle/internal/spec"
	"biglittle/internal/synth"
	"biglittle/internal/telemetry"
	"biglittle/internal/thermal"
	"biglittle/internal/trace"
	"biglittle/internal/uarch"
	"biglittle/internal/workload"
	"biglittle/internal/xray"
)

// Time is a simulated timestamp or duration in nanoseconds.
type Time = event.Time

// Convenient durations.
const (
	Microsecond = event.Microsecond
	Millisecond = event.Millisecond
	Second      = event.Second
)

// App is a benchmark application model (Table II of the paper).
type App = apps.App

// Metric distinguishes latency-oriented from FPS-oriented applications.
type Metric = apps.Metric

// Metric values.
const (
	Latency = apps.Latency
	FPS     = apps.FPS
)

// Apps returns the twelve application models in Table II order.
func Apps() []App { return apps.All() }

// AppByName looks an application model up by name (e.g. "bbench").
func AppByName(name string) (App, error) { return apps.ByName(name) }

// Micro returns the §III-B utilization microbenchmark: a spinner holding
// dutyPct utilization at pinnedMHz, optionally pinned to core pinCore
// (-1 for no affinity).
func Micro(dutyPct, pinnedMHz, pinCore int) App { return apps.Micro(dutyPct, pinnedMHz, pinCore) }

// Ctx is the workload-construction context passed to CustomApp builders.
type Ctx = workload.Ctx

// Workload-primitive re-exports for building custom applications.
type (
	// Thread is a schedulable app thread with per-segment callbacks.
	Thread = workload.Thread
	// Stage is one step of an interaction pipeline.
	Stage = workload.Stage
	// InteractionConfig drives a think-time interaction loop.
	InteractionConfig = workload.InteractionConfig
	// PeriodicConfig drives a periodic (frame-style) activity.
	PeriodicConfig = workload.PeriodicConfig
)

// NewThread creates a named thread with the given big-core speedup on the
// context's system.
func NewThread(ctx *Ctx, name string, speedup float64) *Thread {
	return workload.NewThread(ctx, name, speedup)
}

// InteractionLoop, Periodic and PoissonBursts expose the demand generators
// used by the bundled app models.
func InteractionLoop(ctx *Ctx, cfg InteractionConfig) { workload.InteractionLoop(ctx, cfg) }

// Periodic runs a periodic activity on th.
func Periodic(ctx *Ctx, th *Thread, cfg PeriodicConfig) { workload.Periodic(ctx, th, cfg) }

// PoissonBursts pushes exponentially spaced bursts of work onto th.
func PoissonBursts(ctx *Ctx, th *Thread, meanInterval Time, work, cv float64) {
	workload.PoissonBursts(ctx, th, meanInterval, work, cv)
}

// Mc is one million work cycles (a little core at 1.3 GHz executes 1300 Mc
// per second).
const Mc = workload.Mc

// CustomApp builds an application model from workload primitives; it can be
// passed anywhere a bundled App is accepted.
func CustomApp(name string, metric Metric, build func(ctx *Ctx)) App {
	return App{Name: name, Desc: "custom workload", Metric: metric, Build: build}
}

// Config describes one simulation run: app, seed and duration, or with
// Phases a multi-app session (see NewSession), plus the platform and policy
// knobs (Platform names a SoC preset: "exynos5422", "exynos5422-tiny" or
// "snapdragon810").
type Config = core.Config

// Result holds every metric collected from one run.
type Result = core.Result

// GovernorKind selects the DVFS policy.
type GovernorKind = core.GovernorKind

// Governor kinds.
const (
	Interactive = core.Interactive
	Performance = core.Performance
	Powersave   = core.Powersave
	Userspace   = core.Userspace
)

// DefaultConfig returns the paper's baseline configuration for app: L4+B4,
// HMP scheduler with 700/256 thresholds and 32 ms load half-life, the
// interactive governor at a 20 ms sample interval, 30 s duration.
func DefaultConfig(app App) Config { return core.DefaultConfig(app) }

// Run executes one simulation.
func Run(cfg Config) Result { return core.Run(cfg) }

// CoreConfig is a hotplug configuration ("L4+B1" notation from §V-C).
type CoreConfig = platform.CoreConfig

// ParseCoreConfig parses "L2", "L4+B4" style notation.
func ParseCoreConfig(s string) (CoreConfig, error) { return platform.ParseCoreConfig(s) }

// StudyConfigs returns the seven §V-C hotplug combinations.
func StudyConfigs() []CoreConfig { return platform.StudyConfigs() }

// BaselineCores returns the default L4+B4 configuration.
func BaselineCores() CoreConfig { return platform.Baseline() }

// CoreModel describes one core microarchitecture for trace-driven runs.
type CoreModel = uarch.Model

// TraceResult summarizes one trace-driven run.
type TraceResult = uarch.Result

// SPECProfile statistically describes a SPEC-like workload.
type SPECProfile = synth.Profile

// CortexA7 returns the little-core microarchitecture model (Table I).
func CortexA7() CoreModel { return uarch.CortexA7() }

// CortexA15 returns the big-core microarchitecture model (Table I).
func CortexA15() CoreModel { return uarch.CortexA15() }

// SPECProfiles returns the twelve SPEC-like workload profiles of §III-A.
func SPECProfiles() []SPECProfile { return synth.SPEC() }

// RunTrace replays a workload profile on a core model at freqMHz;
// instructions <= 0 uses the profile's default trace length.
func RunTrace(m CoreModel, p SPECProfile, freqMHz, instructions int) TraceResult {
	return uarch.Run(m, p, freqMHz, instructions)
}

// TraceSpeedup returns how much faster candidate completed the same
// workload than baseline.
func TraceSpeedup(candidate, baseline TraceResult) float64 {
	return uarch.Speedup(candidate, baseline)
}

// SchedSystem exposes the scheduler system for extension points like
// Config.OnSystem (attaching trace recorders or custom policies).
type SchedSystem = sched.System

// TraceRecorder captures a per-core execution timeline; see AttachTrace.
type TraceRecorder = trace.Recorder

// AttachTrace installs a timeline recorder on a system capturing scheduler
// ticks in [from, to); use from Config.OnSystem. Render the result with
// TraceRecorder.Render.
func AttachTrace(sys *SchedSystem, from, to Time) *TraceRecorder {
	return trace.Attach(sys, from, to)
}

// Telemetry is the event-level instrumentation collector. Set one as
// Config.Telemetry to receive scheduler, governor, thermal, hotplug and
// power events from a run, plus metric registries (counters, gauges,
// histograms). A nil *Telemetry disables instrumentation at near-zero cost.
type Telemetry = telemetry.Collector

// TelemetryEvent is one instrumentation event.
type TelemetryEvent = telemetry.Event

// TelemetryKind classifies instrumentation events.
type TelemetryKind = telemetry.Kind

// Telemetry event kinds.
const (
	EvMigration = telemetry.KindMigration
	EvWake      = telemetry.KindWake
	EvPreempt   = telemetry.KindPreempt
	EvBoost     = telemetry.KindBoost
	EvFreq      = telemetry.KindFreq
	EvGovernor  = telemetry.KindGovernor
	EvHotplug   = telemetry.KindHotplug
	EvThrottle  = telemetry.KindThrottle
	EvPower     = telemetry.KindPower
)

// NewTelemetry creates an enabled telemetry collector with the default
// event-ring capacity.
func NewTelemetry() *Telemetry { return telemetry.NewCollector() }

// Xray is the causal decision tracer — a bounded flight recorder of every
// wake placement, migration, governor frequency step, thermal throttle, and
// hotplug decision, each with the candidate set considered, the thresholds
// compared, and per-alternative rejection reasons, causally linked into
// chains walkable in both directions. Set one as Config.Xray; a nil *Xray
// disables tracing at the cost of one pointer check per decision. Query
// dumps with cmd/blxray.
type Xray = xray.Tracer

// XraySpan is one recorded decision with its provenance.
type XraySpan = xray.Span

// XrayDump is the queryable snapshot of a tracer (what Xray.JSON emits and
// cmd/blxray consumes).
type XrayDump = xray.Dump

// XrayKind classifies decision spans.
type XrayKind = xray.Kind

// Xray span kinds.
const (
	XrayKindWake      = xray.KindWake
	XrayKindMigration = xray.KindMigration
	XrayKindFreq      = xray.KindFreq
	XrayKindHotplug   = xray.KindHotplug
	XrayKindThrottle  = xray.KindThrottle
)

// NewXray creates an enabled causal decision tracer with the default
// flight-recorder capacity.
func NewXray() *Xray { return xray.New() }

// ParseXrayDump reads a JSON dump written by Xray.JSON or served by blserve
// at /xray.
func ParseXrayDump(data []byte) (*XrayDump, error) { return xray.ParseDump(data) }

// Profiler is the streaming per-task attribution profiler. Set one as
// Config.Profiler to attribute run/wait time by core type, frequency
// residency, system energy, and migrations to individual tasks. A nil
// *Profiler disables attribution at the cost of one pointer check per
// scheduler event.
type Profiler = profile.Profiler

// ProfileSnapshot is a consistent point-in-time view of the profiler's
// attribution tables; take one with Profiler.Snapshot.
type ProfileSnapshot = profile.Snapshot

// NewProfiler creates an enabled per-task attribution profiler.
func NewProfiler() *Profiler { return profile.New() }

// Additional governor kinds (§IV-D lineage).
const (
	Ondemand        = core.Ondemand
	ConservativeGov = core.Conservative
	PASTGov         = core.PAST
)

// ThermalParams configures the per-cluster thermal model and throttling.
type ThermalParams = thermal.Params

// DefaultThermal returns thermal parameters calibrated so sustained
// multi-core big-cluster load throttles in ~10-15 s while the twelve
// interactive app models never trip.
func DefaultThermal() ThermalParams { return thermal.Default() }

// Stress returns a synthetic stress-test workload of n sustained CPU-bound
// threads.
func Stress(n int) App { return apps.Stress(n) }

// LoadSpec parses a JSON workload document into a runnable App; see the
// internal/spec package documentation for the schema.
func LoadSpec(data []byte) (App, error) { return spec.Parse(data) }

// SessionPhase is one app segment of a multi-app usage session.
type SessionPhase = core.Phase

// SessionResult summarizes a session with per-phase metrics.
type SessionResult = session.Result

// NewSession returns a session on the paper's baseline platform: a Config
// whose Phases are phases. Battery drain is the Galaxy S5's.
func NewSession(phases ...SessionPhase) Config {
	return Config{Seed: 1, Phases: phases, Knobs: core.DefaultKnobs()}
}

// RunSession executes a multi-app session: phases run back to back on one
// platform, with governor and load-tracker state carried across switches.
func RunSession(cfg Config) SessionResult { return session.Run(cfg) }

// RenderSession formats a session result.
func RenderSession(r SessionResult) string { return session.Render(r) }

// LiveSession is an incrementally-advanced session: the same assembly and
// phase sequencing as RunSession, but the caller controls how far simulated
// time moves on each Advance call. cmd/blserve uses it to pace a session
// against the wall clock while serving observability endpoints.
type LiveSession = session.Live

// NewLiveSession assembles a session ready to Advance.
func NewLiveSession(cfg Config) *LiveSession { return session.NewLive(cfg) }

// GalaxyS5Pack returns the paper device's battery.
func GalaxyS5Pack() battery.Pack { return battery.GalaxyS5() }

// Auditor is the runtime invariant checker. Set one as Config.Check to
// continuously verify the simulator's conservation laws during a run —
// legal cluster frequencies, the "one little core always online" hotplug
// constraint, monotone virtual time, per-core time accounting, and energy
// as the integral of modeled power — and reconcile end-of-run totals. The
// auditor is a pure observer: an audited run produces byte-identical
// results. A nil *Auditor disables auditing at the cost of one pointer check
// per hook site.
type Auditor = check.Auditor

// CheckViolation is one invariant violation (timestamp, invariant name,
// detail).
type CheckViolation = check.Violation

// NewAuditor creates an enabled invariant auditor.
func NewAuditor() *Auditor { return check.New() }

// CheckResult validates a finished Result for internal consistency — the
// cross-metric identities that must hold however the run went. It needs no
// live system, so it also applies to results loaded from the lab cache or a
// JSON file.
func CheckResult(r Result) []CheckViolation { return check.CheckResult(r) }
