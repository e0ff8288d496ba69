package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/thermal"
)

// ThermalRow summarizes one app's sustained-performance behaviour with the
// thermal model and throttling enabled, over a run long enough for the die
// to heat up.
type ThermalRow struct {
	App string
	// Mapping is "hmp" (default scheduler) or "big" (everything forced to
	// the big cluster — the sustained-maximum scenario where passively
	// cooled devices throttle).
	Mapping string
	// FPSFirstHalf/FPSSecondHalf show the sustained-performance drop for
	// FPS apps; latency apps report the performance change instead.
	FPSFirstHalf   float64
	FPSSecondHalf  float64
	PerfChangePct  float64 // versus the same run without thermal
	PowerChangePct float64
	MaxTempC       float64
	ThrottledPct   float64
}

// ThermalStudy runs five apps and a four-thread stress load for an extended
// duration (3x the configured duration, min 45 s) with and without the
// thermal model: the apps never sustain enough power to throttle, even on
// the big cores alone, while the stress load trips the throttle — the
// dimension the paper's 30-second runs could not observe.
func ThermalStudy(o Options) []ThermalRow {
	o = o.withDefaults()
	dur := 3 * o.Duration
	if dur < 45*event.Second {
		dur = 45 * event.Second
	}
	par := thermal.Default()

	suite := []apps.App{}
	for _, name := range []string{"eternity_warrior", "fifa15", "encoder", "bbench", "video_player"} {
		app, err := apps.ByName(name)
		if err != nil {
			panic(err)
		}
		suite = append(suite, app)
	}
	suite = append(suite, apps.Stress(4))

	// Each app runs long under the HMP and the big-only mapping, each
	// without and then with the thermal model.
	hmp := func(c *core.Config) { c.Duration = dur }
	big := func(c *core.Config) { hmp(c); bigOnly(c) }
	heated := func(mapping func(*core.Config)) func(*core.Config) {
		return func(c *core.Config) { mapping(c); c.Thermal = &par }
	}
	res := o.grid(suite, hmp, heated(hmp), big, heated(big))
	rows := make([]ThermalRow, 0, 2*len(suite))
	for ai, app := range suite {
		for mi, mapping := range []string{"hmp", "big"} {
			cold, hot := res[ai][2*mi], res[ai][2*mi+1]
			perf := pct(hot.Performance(), cold.Performance())
			if hot.Performance() == 0 {
				perf = pct(hot.TotalWorkGc, cold.TotalWorkGc)
			}
			rows = append(rows, ThermalRow{
				App:            app.Name,
				Mapping:        mapping,
				FPSFirstHalf:   hot.FPSFirstHalf,
				FPSSecondHalf:  hot.FPSSecondHalf,
				PerfChangePct:  perf,
				PowerChangePct: pct(hot.AvgPowerMW, cold.AvgPowerMW),
				MaxTempC:       hot.MaxTempC,
				ThrottledPct:   hot.ThrottledPct,
			})
		}
	}
	return rows
}

// RenderThermal formats the sustained-performance study.
func RenderThermal(rows []ThermalRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Thermal throttling under sustained load (vs no thermal model)")
		fmt.Fprintln(w, "app\tmapping\tFPS 1st half\tFPS 2nd half\tperf change %\tpower change %\tmax temp C\tthrottled %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%+.1f\t%+.1f\t%.1f\t%.1f\n",
				r.App, r.Mapping, r.FPSFirstHalf, r.FPSSecondHalf, r.PerfChangePct, r.PowerChangePct,
				r.MaxTempC, r.ThrottledPct)
		}
	})
}
