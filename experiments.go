package biglittle

import (
	"biglittle/internal/analysis"
	"biglittle/internal/platform"
)

// ExperimentOptions scale the paper-reproduction drivers; the zero value
// uses the paper-faithful defaults (30 s per app run, full SPEC traces,
// seed 1).
type ExperimentOptions = analysis.Options

// Experiment row types, one per paper artifact.
type (
	// Fig2Row is one workload's speedup bars in Figure 2.
	Fig2Row = analysis.Fig2Row
	// Fig3Row is one workload's power bars in Figure 3.
	Fig3Row = analysis.Fig3Row
	// ClusterCompareRow is one app's point in Figure 4 or 5.
	ClusterCompareRow = analysis.ClusterCompareRow
	// Fig6Row is one (core type, frequency, utilization) power sample.
	Fig6Row = analysis.Fig6Row
	// CoreConfigRow is one app × hotplug-configuration cell of Figures 7/8.
	CoreConfigRow = analysis.CoreConfigRow
	// TuningRow is one app × governor/HMP-parameter cell of Figures 11-13.
	TuningRow = analysis.TuningRow
	// TuningSummary aggregates TuningRows into Figure 11's bars.
	TuningSummary = analysis.TuningSummary
)

// Fig2 reproduces Figure 2: SPEC speedups of the big core at 1.9/1.3/0.8 GHz
// over the little core at 1.3 GHz.
func Fig2(o ExperimentOptions) []Fig2Row { return analysis.Fig2(o) }

// Fig3 reproduces Figure 3: whole-system power for the SPEC workloads.
func Fig3(o ExperimentOptions) []Fig3Row { return analysis.Fig3(o) }

// Fig4 reproduces Figure 4: latency and power on 4 big versus 4 little
// cores for the latency-oriented apps.
func Fig4(o ExperimentOptions) []ClusterCompareRow { return analysis.Fig4(o) }

// Fig5 reproduces Figure 5: FPS and power on 4 big versus 4 little cores
// for the FPS-oriented apps.
func Fig5(o ExperimentOptions) []ClusterCompareRow { return analysis.Fig5(o) }

// Fig6 reproduces Figure 6: power versus utilization per core type and
// frequency, via the duty-cycle microbenchmark.
func Fig6(o ExperimentOptions) []Fig6Row { return analysis.Fig6(o) }

// Characterize runs every app on the baseline configuration, backing
// Tables III-V and Figures 9/10; index the returned Results' TLP, Matrix,
// Eff, and residency fields.
func Characterize(o ExperimentOptions) []Result { return analysis.Characterize(o) }

// CoreConfigs reproduces Figures 7/8: every app across the seven §V-C
// hotplug combinations versus the L4+B4 baseline.
func CoreConfigs(o ExperimentOptions) []CoreConfigRow { return analysis.CoreConfigs(o) }

// TuningStudy reproduces Figures 11-13: every app under the eight
// parameter configurations versus the baseline.
func TuningStudy(o ExperimentOptions) []TuningRow { return analysis.TuningStudy(o) }

// SummarizeTuning computes Figure 11's per-configuration aggregates.
func SummarizeTuning(rows []TuningRow) []TuningSummary { return analysis.SummarizeTuning(rows) }

// Renderers format experiment rows the way the paper presents them.
func RenderFig2(rows []Fig2Row) string              { return analysis.RenderFig2(rows) }
func RenderFig3(rows []Fig3Row) string              { return analysis.RenderFig3(rows) }
func RenderFig4(rows []ClusterCompareRow) string    { return analysis.RenderFig4(rows) }
func RenderFig5(rows []ClusterCompareRow) string    { return analysis.RenderFig5(rows) }
func RenderFig6(rows []Fig6Row) string              { return analysis.RenderFig6(rows) }
func RenderTable3(results []Result) string          { return analysis.RenderTable3(results) }
func RenderTable4(r Result) string                  { return analysis.RenderTable4(r) }
func RenderTable5(results []Result) string          { return analysis.RenderTable5(results) }
func RenderCoreConfigs(rows []CoreConfigRow) string { return analysis.RenderCoreConfigs(rows) }
func RenderTuning(rows []TuningRow) string          { return analysis.RenderTuning(rows) }

// RenderLittleResidency formats Figure 9 (little-cluster frequency
// distribution) from Characterize results.
func RenderLittleResidency(results []Result) string {
	return analysis.RenderResidency(results, platform.Little)
}

// RenderBigResidency formats Figure 10 (big-cluster frequency distribution).
func RenderBigResidency(results []Result) string {
	return analysis.RenderResidency(results, platform.Big)
}

// TinyRow is one app's cell in the tiny-core extension study.
type TinyRow = analysis.TinyRow

// TinyStudy evaluates the paper's §VI-B proposal — adding a cluster of two
// tiny cores to absorb "min"-state loads — across all twelve apps.
// See platform notes in DESIGN.md: tiny-tier placement is gated on each
// task's burst footprint (small-task packing).
func TinyStudy(o ExperimentOptions) []TinyRow { return analysis.TinyStudy(o) }

// RenderTiny formats the tiny-core extension study.
func RenderTiny(rows []TinyRow) string { return analysis.RenderTiny(rows) }

// SchedulerRow is one app × scheduling-policy cell of the §IV-A comparison.
type SchedulerRow = analysis.SchedulerRow

// SchedulerStudy compares utilization-based HMP with the efficiency-based
// and parallelism-aware policies of §IV-A across all twelve apps.
func SchedulerStudy(o ExperimentOptions) []SchedulerRow { return analysis.SchedulerStudy(o) }

// RenderSchedulers formats the scheduling-policy comparison.
func RenderSchedulers(rows []SchedulerRow) string { return analysis.RenderSchedulers(rows) }

// GovernorRow is one app × governor cell of the §IV-D comparison.
type GovernorRow = analysis.GovernorRow

// GovernorStudy compares the ondemand, conservative, PAST, and performance
// governors against the interactive baseline across all twelve apps.
func GovernorStudy(o ExperimentOptions) []GovernorRow { return analysis.GovernorStudy(o) }

// RenderGovernors formats the governor comparison.
func RenderGovernors(rows []GovernorRow) string { return analysis.RenderGovernors(rows) }

// IdleRow is one app's cell in the deep-idle (cpuidle) study.
type IdleRow = analysis.IdleRow

// IdleStudy quantifies the cpuidle trade-off: enabling a deep cluster-sleep
// state saves idle power but charges an exit latency on wakes.
func IdleStudy(o ExperimentOptions) []IdleRow { return analysis.IdleStudy(o) }

// RenderIdle formats the deep-idle study.
func RenderIdle(rows []IdleRow) string { return analysis.RenderIdle(rows) }

// ThermalRow is one (app, mapping) cell of the sustained-load thermal study.
type ThermalRow = analysis.ThermalRow

// ThermalStudy runs the CPU-heaviest apps plus a synthetic stress test for
// an extended duration with the thermal model enabled: mobile interactive
// apps never sustain enough power to throttle, while the stress load trips
// the throttle and the emergency big-core hotplug.
func ThermalStudy(o ExperimentOptions) []ThermalRow { return analysis.ThermalStudy(o) }

// RenderThermal formats the thermal study.
func RenderThermal(rows []ThermalRow) string { return analysis.RenderThermal(rows) }

// BatteryRow estimates one app's battery life on the paper's device.
type BatteryRow = analysis.BatteryRow

// BatteryStudy converts each app's average power into Galaxy S5 battery-life
// estimates with per-thread energy attribution.
func BatteryStudy(o ExperimentOptions) []BatteryRow { return analysis.BatteryStudy(o) }

// RenderBattery formats the battery study.
func RenderBattery(rows []BatteryRow) string { return analysis.RenderBattery(rows) }

// MultitaskRow compares a foreground app alone versus with a background app.
type MultitaskRow = analysis.MultitaskRow

// MultitaskStudy evaluates foreground+background app combinations.
func MultitaskStudy(o ExperimentOptions) []MultitaskRow { return analysis.MultitaskStudy(o) }

// RenderMultitask formats the multitasking study.
func RenderMultitask(rows []MultitaskRow) string { return analysis.RenderMultitask(rows) }

// SeedStatsRow aggregates one app's metrics over several workload seeds.
type SeedStatsRow = analysis.SeedStatsRow

// SeedStats quantifies run-to-run variation: every app re-run under n
// distinct seeds, reporting mean ± std and range per metric.
func SeedStats(o ExperimentOptions, n int) []SeedStatsRow { return analysis.SeedStats(o, n) }

// RenderSeedStats formats the seed-variation study.
func RenderSeedStats(rows []SeedStatsRow) string { return analysis.RenderSeedStats(rows) }

// PredictorRow holds one workload's misprediction rates per predictor class.
type PredictorRow = analysis.PredictorRow

// PredictorStudy measures bimodal (A7-class) and tournament (A15-class)
// branch predictors over structured branch traces, validating the uarch
// model's PredictorFactor.
func PredictorStudy(o ExperimentOptions) []PredictorRow { return analysis.PredictorStudy(o) }

// RenderPredictors formats the predictor validation study.
func RenderPredictors(rows []PredictorRow) string { return analysis.RenderPredictors(rows) }

// FidelityRow quantifies one app's distance from the paper's published
// Tables III and IV.
type FidelityRow = analysis.FidelityRow

// Fidelity scores the default characterization against the paper's
// published numbers: absolute Table III errors plus the total-variation
// distance between simulated and published Table IV distributions.
func Fidelity(o ExperimentOptions) []FidelityRow { return analysis.Fidelity(o) }

// RenderFidelity formats the fidelity scoring.
func RenderFidelity(rows []FidelityRow) string { return analysis.RenderFidelity(rows) }

// EDPRow is one app × configuration energy-delay cell.
type EDPRow = analysis.EDPRow

// EDP evaluates the energy-delay product of every app across little-only,
// single-big, full, and tiny-extended configurations.
func EDP(o ExperimentOptions) []EDPRow { return analysis.EDP(o) }

// RenderEDP formats the energy-delay study.
func RenderEDP(rows []EDPRow) string { return analysis.RenderEDP(rows) }

// CacheSweepRow is one workload's speedup across little-L2 capacities.
type CacheSweepRow = analysis.CacheSweepRow

// CacheSweep ablates the little cluster's L2 capacity, probing the paper's
// §III-A attribution of the big-core speedup spread to the 2MB/512KB gap.
func CacheSweep(o ExperimentOptions) []CacheSweepRow { return analysis.CacheSweep(o) }

// RenderCacheSweep formats the L2-size ablation.
func RenderCacheSweep(rows []CacheSweepRow) string { return analysis.RenderCacheSweep(rows) }

// Findings distills the paper's five headline conclusions with measured
// numbers.
type Findings = analysis.Findings

// Summarize runs the headline experiments and assembles the findings.
func Summarize(o ExperimentOptions) Findings { return analysis.Summarize(o) }

// RenderSummary formats the findings as prose.
func RenderSummary(f Findings) string { return analysis.RenderSummary(f) }

// CrossPlatformRow compares one app across SoC presets.
type CrossPlatformRow = analysis.CrossPlatformRow

// CrossPlatform runs the suite on the Exynos 5422 and a Snapdragon
// 810-class SoC with the identical kernel stack.
func CrossPlatform(o ExperimentOptions) []CrossPlatformRow { return analysis.CrossPlatform(o) }

// RenderCrossPlatform formats the cross-SoC comparison.
func RenderCrossPlatform(rows []CrossPlatformRow) string { return analysis.RenderCrossPlatform(rows) }
