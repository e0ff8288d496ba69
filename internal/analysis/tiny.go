package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/platform"
)

// TinyRow is one app's comparison between the standard L4+B4 platform and
// the same platform extended with two tiny cores (T2+L4+B4) — the paper's
// §VI-B proposal: "another core type, tiny core, with much weaker
// capability can be added to process such low CPU loads".
type TinyRow struct {
	App string
	// PowerSavingPct versus the L4+B4 baseline (positive = tiny cores save).
	PowerSavingPct float64
	// PerfChangePct versus baseline (latency apps: interaction rate; FPS
	// apps: average FPS).
	PerfChangePct float64
	MinFPSChange  float64
	// TinySharePct is the fraction of active core-samples served by tiny
	// cores in the extended configuration.
	TinyShare float64
	// BaselineMinPct is the Table V "min" share on the baseline — the
	// headroom the tiny cores are meant to absorb.
	BaselineMinPct float64
}

// TinyStudy runs every app on L4+B4 and on T2+L4+B4 and reports the energy
// and performance effect of adding the tiny cluster. Apps whose baseline
// execution is dominated by the Table V "min" state (video players,
// browsers, readers) should benefit the most; CPU-heavy apps should be
// unaffected.
func TinyStudy(o Options) []TinyRow {
	o = o.withDefaults()
	all := apps.All()
	res := o.grid(all, nil, func(c *core.Config) { c.Cores = platform.CoreConfig{Tiny: 2, Little: 4, Big: 4} })
	rows := make([]TinyRow, len(all))
	for i, app := range all {
		base, r := res[i][0], res[i][1]
		row := TinyRow{
			App:            app.Name,
			PowerSavingPct: pct(base.AvgPowerMW, r.AvgPowerMW),
			PerfChangePct:  pct(r.Performance(), base.Performance()),
			TinyShare:      r.TinyActivePct,
			BaselineMinPct: base.Eff[0],
		}
		if app.Metric == apps.FPS {
			row.MinFPSChange = pct(r.MinFPS, base.MinFPS)
		}
		rows[i] = row
	}
	return rows
}

// RenderTiny formats the tiny-core extension study.
func RenderTiny(rows []TinyRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Tiny-core extension (T2+L4+B4 vs L4+B4; paper §VI-B proposal)")
		fmt.Fprintln(w, "app\tpower saving %\tperf change %\tmin-FPS change %\ttiny share %\tbaseline min-state %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				r.App, r.PowerSavingPct, r.PerfChangePct, r.MinFPSChange, r.TinyShare, r.BaselineMinPct)
		}
	})
}
