package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
)

// SchedulerRow compares one app across the three §IV-A mapping policies:
// utilization-based HMP (the commercial baseline), efficiency-based, and
// parallelism-aware scheduling.
type SchedulerRow struct {
	App       string
	Scheduler string
	// Deltas versus the HMP baseline.
	PerfChangePct  float64
	PowerChangePct float64
	BigSharePct    float64 // big-core usage share of active samples
	Migrations     int
}

// SchedulerStudy runs every app under the three scheduling approaches. The
// paper argues (§IV-A) that for fluctuating low-utilization mobile loads
// the simple utilization-based policy captures most of the benefit; this
// study quantifies that claim on the simulated platform.
func SchedulerStudy(o Options) []SchedulerRow {
	o = o.withDefaults()
	all := apps.All()
	kinds := []core.SchedulerKind{core.EfficiencyBased, core.ParallelismAware, core.EAS}
	vary := []func(*core.Config){nil} // the HMP baseline, then each policy
	for _, k := range kinds {
		vary = append(vary, func(c *core.Config) { c.Scheduler = k })
	}
	res := o.grid(all, vary...)
	rows := make([]SchedulerRow, 0, len(all)*len(vary))
	for ai, app := range all {
		base := res[ai][0]
		rows = append(rows, SchedulerRow{
			App:         app.Name,
			Scheduler:   core.HMP.String(),
			BigSharePct: base.TLP.BigPct,
			Migrations:  base.HMPMigrations,
		})
		for ki, k := range kinds {
			r := res[ai][1+ki]
			rows = append(rows, SchedulerRow{
				App:            app.Name,
				Scheduler:      k.String(),
				PerfChangePct:  pct(r.Performance(), base.Performance()),
				PowerChangePct: pct(r.AvgPowerMW, base.AvgPowerMW),
				BigSharePct:    r.TLP.BigPct,
				Migrations:     r.HMPMigrations,
			})
		}
	}
	return rows
}

// RenderSchedulers formats the scheduling-policy comparison.
func RenderSchedulers(rows []SchedulerRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Scheduling policies (§IV-A): efficiency-based and parallelism-aware vs HMP")
		fmt.Fprintln(w, "app\tpolicy\tperf vs HMP %\tpower vs HMP %\tbig share %\tmigrations")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%+.1f\t%+.1f\t%.1f\t%d\n",
				r.App, r.Scheduler, r.PerfChangePct, r.PowerChangePct, r.BigSharePct, r.Migrations)
		}
	})
}
