package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/platform"
)

// EDPRow holds one app × configuration energy-efficiency cell.
type EDPRow struct {
	App    string
	Config string
	// EnergyPerOpJ is joules per interaction (latency apps) or per frame
	// (FPS apps).
	EnergyPerOpJ float64
	// DelayS is the mean interaction latency, or the frame time implied by
	// the average FPS.
	DelayS float64
	// EDP is EnergyPerOpJ x DelayS — lower is better.
	EDP float64
	// Best marks the configuration with the lowest EDP for this app.
	Best bool
}

// edpConfigs are the candidate platforms: little-only, the balanced single
// big core, the full baseline, and the tiny-core extension.
func edpConfigs() []platform.CoreConfig {
	return []platform.CoreConfig{
		{Little: 4},
		{Little: 4, Big: 1},
		{Little: 4, Big: 4},
		{Tiny: 2, Little: 4, Big: 4},
	}
}

// EDP evaluates the energy-delay product of every app across four core
// configurations, synthesizing the paper's §V-C question — how many big
// cores does a mobile platform need? — into a single designer-facing
// metric. The paper's qualitative answer (one big core is the balance
// point) should appear as L4+B1 winning or tying for most apps.
func EDP(o Options) []EDPRow {
	o = o.withDefaults()
	all := apps.All()
	cfgs := edpConfigs()
	var vary []func(*core.Config)
	for _, cc := range cfgs {
		vary = append(vary, func(c *core.Config) { c.Cores = cc })
	}
	res := o.grid(all, vary...)
	rows := make([]EDPRow, len(all)*len(cfgs))
	for ai, app := range all {
		bestIdx, bestEDP := -1, 0.0
		for ci, cc := range cfgs {
			r := res[ai][ci]

			ops := float64(r.Interactions)
			delay := r.MeanLatency.Seconds()
			if app.Metric == apps.FPS {
				ops = float64(r.Frames)
				if r.AvgFPS > 0 {
					delay = 1 / r.AvgFPS
				}
			}
			row := EDPRow{App: app.Name, Config: cc.String(), DelayS: delay}
			if ops > 0 {
				row.EnergyPerOpJ = r.EnergyMJ / 1000 / ops
				row.EDP = row.EnergyPerOpJ * delay
			}
			idx := ai*len(cfgs) + ci
			rows[idx] = row
			if row.EDP > 0 && (bestIdx < 0 || row.EDP < bestEDP) {
				bestIdx, bestEDP = idx, row.EDP
			}
		}
		if bestIdx >= 0 {
			rows[bestIdx].Best = true
		}
	}
	return rows
}

// RenderEDP formats the energy-delay study.
func RenderEDP(rows []EDPRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Energy-delay product by core configuration (lower is better; * = best)")
		fmt.Fprintln(w, "app\tconfig\tenergy/op mJ\tdelay ms\tEDP uJ*s\t")
		for _, r := range rows {
			mark := ""
			if r.Best {
				mark = "*"
			}
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.2f\t%.2f\t%s\n",
				r.App, r.Config, r.EnergyPerOpJ*1000, r.DelayS*1000, r.EDP*1e6, mark)
		}
	})
}
