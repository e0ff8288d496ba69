package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/lab"
	"biglittle/internal/power"
)

// CrossPlatformRow compares one app across SoC presets running the same
// kernel stack.
type CrossPlatformRow struct {
	App      string
	Platform string
	// Deltas versus the Exynos 5422 baseline.
	PerfChangePct  float64
	PowerChangePct float64
	BigPct         float64
}

// CrossPlatform runs the full suite on the Exynos 5422 and a Snapdragon
// 810-class SoC with the identical HMP scheduler and interactive governor,
// showing that the characterization methodology — and the library — is not
// tied to one chip: faster clusters shift work placement and power but the
// TLP and usage structure persists.
func CrossPlatform(o Options) []CrossPlatformRow {
	o = o.withDefaults()
	all := apps.All()
	jobs := make([]lab.Job, 0, 2*len(all))
	for _, app := range all {
		jobs = append(jobs, job(o.appConfig(app)))
		cfg := o.appConfig(app)
		cfg.Platform = "snapdragon810"
		cfg.Power = power.Snapdragon810Params()
		jobs = append(jobs, job(cfg))
	}
	res := o.runAll(jobs)
	rows := make([]CrossPlatformRow, len(all)*2)
	for ai, app := range all {
		base, r := res[2*ai], res[2*ai+1]
		rows[ai*2] = CrossPlatformRow{
			App: app.Name, Platform: "exynos5422", BigPct: base.TLP.BigPct,
		}
		rows[ai*2+1] = CrossPlatformRow{
			App:            app.Name,
			Platform:       "snapdragon810",
			PerfChangePct:  pct(r.Performance(), base.Performance()),
			PowerChangePct: pct(r.AvgPowerMW, base.AvgPowerMW),
			BigPct:         r.TLP.BigPct,
		}
	}
	return rows
}

// RenderCrossPlatform formats the cross-SoC comparison.
func RenderCrossPlatform(rows []CrossPlatformRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Cross-platform: the same apps and kernel stack on a Snapdragon 810-class SoC")
		fmt.Fprintln(w, "app\tplatform\tperf vs exynos %\tpower vs exynos %\tbig share %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%+.1f\t%+.1f\t%.1f\n",
				r.App, r.Platform, r.PerfChangePct, r.PowerChangePct, r.BigPct)
		}
	})
}
