package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
)

// GovernorRow compares one app across DVFS governors, relative to the
// interactive baseline.
type GovernorRow struct {
	App      string
	Governor string
	// Deltas versus the interactive-governor baseline.
	PerfChangePct  float64
	PowerChangePct float64
}

// GovernorStudy runs every app under the ondemand, conservative, and PAST
// governors (§IV-D's lineage of the interactive governor) plus the
// performance governor as an upper bound, comparing power and performance
// with the interactive baseline.
func GovernorStudy(o Options) []GovernorRow {
	o = o.withDefaults()
	kinds := []core.GovernorKind{core.Ondemand, core.Conservative, core.PAST, core.Performance}
	all := apps.All()
	vary := []func(*core.Config){nil} // the interactive baseline, then each governor
	for _, k := range kinds {
		vary = append(vary, func(c *core.Config) { c.Governor = k })
	}
	res := o.grid(all, vary...)
	rows := make([]GovernorRow, 0, len(all)*len(kinds))
	for ai, app := range all {
		base := res[ai][0]
		for ki, k := range kinds {
			r := res[ai][1+ki]
			rows = append(rows, GovernorRow{
				App:            app.Name,
				Governor:       k.String(),
				PerfChangePct:  pct(r.Performance(), base.Performance()),
				PowerChangePct: pct(r.AvgPowerMW, base.AvgPowerMW),
			})
		}
	}
	return rows
}

// RenderGovernors formats the governor comparison.
func RenderGovernors(rows []GovernorRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "DVFS governors (§IV-D lineage) vs the interactive baseline")
		fmt.Fprintln(w, "app\tgovernor\tperf vs interactive %\tpower vs interactive %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%+.1f\t%+.1f\n", r.App, r.Governor, r.PerfChangePct, r.PowerChangePct)
		}
	})
}
