package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
)

// IdleRow compares one app with and without the deep (cluster-sleep) idle
// state — the cpuidle trade-off: idle power drops, but every wake from deep
// idle pays an exit latency.
type IdleRow struct {
	App string
	// PowerSavingPct of enabling deep idle versus WFI-only.
	PowerSavingPct float64
	// PerfChangePct versus WFI-only (negative = wake latency hurt).
	PerfChangePct float64
	MinFPSChange  float64
}

// IdleStudy runs every app with deep idle disabled (the baseline everywhere
// else in this repository) and enabled (2 ms residency threshold, 1 ms exit
// latency — typical of mobile cluster-sleep states), quantifying the §III-B
// observation that idle power matters for low-utilization workloads.
func IdleStudy(o Options) []IdleRow {
	o = o.withDefaults()
	all := apps.All()
	res := o.grid(all, nil, func(c *core.Config) {
		c.Sched.DeepIdleAfter = 2 * event.Millisecond
		c.Sched.DeepIdleWake = event.Millisecond
	})
	rows := make([]IdleRow, len(all))
	for i, app := range all {
		base, r := res[i][0], res[i][1]
		row := IdleRow{
			App:            app.Name,
			PowerSavingPct: pct(base.AvgPowerMW, r.AvgPowerMW),
			PerfChangePct:  pct(r.Performance(), base.Performance()),
		}
		if app.Metric == apps.FPS {
			row.MinFPSChange = pct(r.MinFPS, base.MinFPS)
		}
		rows[i] = row
	}
	return rows
}

// RenderIdle formats the deep-idle study.
func RenderIdle(rows []IdleRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Deep idle states (cpuidle cluster sleep) vs WFI-only")
		fmt.Fprintln(w, "app\tpower saving %\tperf change %\tmin-FPS change %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%+.1f\t%+.1f\n", r.App, r.PowerSavingPct, r.PerfChangePct, r.MinFPSChange)
		}
	})
}
