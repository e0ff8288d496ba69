package main

import (
	"fmt"
	"io"
	"strings"

	"biglittle"
)

// reportSection is one facade call of the blreport sequence: the text it
// contributes, preceded by a "===== title =====" banner when title is set.
// The list mirrors cmd/blreport's main in order and bytes (a test pins the
// two renders together), so the report workloads cannot drift from the
// command users run.
type reportSection struct {
	key   string
	title string
	body  func(o biglittle.ExperimentOptions) string
}

var reportSections = []reportSection{
	{"summary", "headline findings", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderSummary(biglittle.Summarize(o))
	}},
	{"fig2", "§III-A: architectural characteristics", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderFig2(biglittle.Fig2(o))
	}},
	{"fig3", "", func(o biglittle.ExperimentOptions) string {
		return "\n" + biglittle.RenderFig3(biglittle.Fig3(o))
	}},
	{"fig4", "", func(o biglittle.ExperimentOptions) string {
		return "\n" + biglittle.RenderFig4(biglittle.Fig4(o))
	}},
	{"fig5", "", func(o biglittle.ExperimentOptions) string {
		return "\n" + biglittle.RenderFig5(biglittle.Fig5(o))
	}},
	{"fig6", "§III-B: power by core utilization", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderFig6(biglittle.Fig6(o))
	}},
	{"characterize", "§V: application characterization (Tables III-V, Figures 9/10)", func(o biglittle.ExperimentOptions) string {
		results := biglittle.Characterize(o)
		var b strings.Builder
		b.WriteString(biglittle.RenderTable3(results) + "\n")
		for _, r := range results {
			b.WriteString(biglittle.RenderTable4(r) + "\n")
		}
		b.WriteString(biglittle.RenderTable5(results) + "\n")
		b.WriteString(biglittle.RenderLittleResidency(results) + "\n")
		b.WriteString(biglittle.RenderBigResidency(results))
		return b.String()
	}},
	{"core_configs", "§V-C: core configurations (Figures 7/8)", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderCoreConfigs(biglittle.CoreConfigs(o))
	}},
	{"tuning", "§VI-C: governor and HMP parameter study (Figures 11-13)", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderTuning(biglittle.TuningStudy(o))
	}},
	{"tiny", "extension: §VI-B tiny-core proposal", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderTiny(biglittle.TinyStudy(o))
	}},
	{"schedulers", "extension: §IV-A scheduling policies", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderSchedulers(biglittle.SchedulerStudy(o))
	}},
	{"governors", "extension: §IV-D DVFS governors", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderGovernors(biglittle.GovernorStudy(o))
	}},
	{"idle", "extension: cpuidle deep idle states", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderIdle(biglittle.IdleStudy(o))
	}},
	{"thermal", "extension: thermal throttling under sustained load", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderThermal(biglittle.ThermalStudy(o))
	}},
	{"cache_sweep", "extension: L2-size ablation", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderCacheSweep(biglittle.CacheSweep(o))
	}},
	{"predictors", "extension: branch predictor validation", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderPredictors(biglittle.PredictorStudy(o))
	}},
	{"battery", "extension: battery life and per-thread energy", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderBattery(biglittle.BatteryStudy(o))
	}},
	{"multitask", "extension: multitasking", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderMultitask(biglittle.MultitaskStudy(o))
	}},
	{"seed_stats", "extension: run-to-run variation (5 seeds)", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderSeedStats(biglittle.SeedStats(o, 5))
	}},
	{"edp", "extension: energy-delay product by core configuration", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderEDP(biglittle.EDP(o))
	}},
	{"cross_platform", "extension: cross-platform (Snapdragon 810-class SoC)", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderCrossPlatform(biglittle.CrossPlatform(o))
	}},
	{"fidelity", "fidelity score vs the paper's published tables", func(o biglittle.ExperimentOptions) string {
		return biglittle.RenderFidelity(biglittle.Fidelity(o))
	}},
}

// renderReport writes the blreport sequence for o to w, one span per
// section under parent.
func renderReport(w io.Writer, o biglittle.ExperimentOptions, tr *tracer, parent int) {
	for _, s := range reportSections {
		id := tr.begin("analysis."+s.key, parent, 0)
		if s.title != "" {
			fmt.Fprintf(w, "\n===== %s =====\n\n", s.title)
		}
		io.WriteString(w, s.body(o))
		tr.end(id)
	}
}
