package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/apps"
	"biglittle/internal/battery"
	"biglittle/internal/lab"
)

// BatteryRow estimates battery life per app on the paper's device.
type BatteryRow struct {
	App             string
	AvgMW           float64
	Hours           float64 // continuous use on a Galaxy S5 pack (CPU+SoC rails only)
	DrainPctPerHour float64
	// HungriestThread attributes the largest share of active energy.
	HungriestThread string
	ThreadEnergyPct float64
}

// BatteryStudy converts each app's measured average power into battery-life
// estimates on the Galaxy S5's 2800 mAh pack, and attributes energy to the
// hungriest thread. Note the power model covers the CPU/SoC/DRAM rails with
// the screen off (as in the paper's methodology); real screen-on battery
// life is lower.
func BatteryStudy(o Options) []BatteryRow {
	o = o.withDefaults()
	pack := battery.GalaxyS5()
	all := apps.All()
	res := o.grid(all, nil)
	rows := make([]BatteryRow, len(all))
	for i := range all {
		r := res[i][0]
		row := BatteryRow{
			App:             all[i].Name,
			AvgMW:           r.AvgPowerMW,
			Hours:           pack.HoursAt(r.AvgPowerMW),
			DrainPctPerHour: pack.DrainOver(r.AvgPowerMW, 3600*1e9),
		}
		if len(r.TaskStats) > 0 {
			total := 0.0
			for _, ts := range r.TaskStats {
				total += ts.EnergyJ
			}
			row.HungriestThread = r.TaskStats[0].Name
			if total > 0 {
				row.ThreadEnergyPct = 100 * r.TaskStats[0].EnergyJ / total
			}
		}
		rows[i] = row
	}
	return rows
}

// RenderBattery formats the battery study.
func RenderBattery(rows []BatteryRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Battery life on a Galaxy S5 pack (CPU/SoC rails, screen off)")
		fmt.Fprintln(w, "app\tavg mW\thours\tdrain %/h\thungriest thread\tits energy share %")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0f\t%.1f\t%.1f\t%s\t%.1f\n",
				r.App, r.AvgMW, r.Hours, r.DrainPctPerHour, r.HungriestThread, r.ThreadEnergyPct)
		}
	})
}

// MultitaskRow compares a foreground app running alone versus with a
// background app.
type MultitaskRow struct {
	Scenario string
	// Foreground performance change versus running alone.
	PerfChangePct float64
	// Power of the combination versus foreground alone.
	PowerIncreasePct float64
	TLP              float64
	TLPAlone         float64
}

// MultitaskStudy evaluates foreground+background combinations — the
// scenario the paper's single-app methodology sets aside (its §V-A notes
// the limited screen keeps concurrent apps rare). Each composite reports
// the foreground app's metric.
func MultitaskStudy(o Options) []MultitaskRow {
	o = o.withDefaults()
	type combo struct {
		name       string
		foreground string
		background string
	}
	combos := []combo{
		{"browser+music", "browser", "youtube"},
		{"pdf+video", "pdf_reader", "video_player"},
		{"game+encode", "angry_bird", "encoder"},
		{"bbench+scan", "bbench", "virus_scanner"},
	}
	jobs := make([]lab.Job, 0, 2*len(combos))
	for _, c := range combos {
		fg, err := apps.ByName(c.foreground)
		if err != nil {
			panic(err)
		}
		bg, err := apps.ByName(c.background)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, job(o.appConfig(fg)))
		// A composite's background set lives inside its Build closure, so
		// salt the fingerprint with the member apps.
		jobs = append(jobs, lab.Job{
			Config: o.appConfig(apps.Composite(c.name, fg, bg)),
			Salt:   "composite/" + c.foreground + "+" + c.background,
		})
	}
	res := o.runAll(jobs)
	rows := make([]MultitaskRow, len(combos))
	for i, c := range combos {
		alone, both := res[2*i], res[2*i+1]
		rows[i] = MultitaskRow{
			Scenario:         c.name,
			PerfChangePct:    pct(both.Performance(), alone.Performance()),
			PowerIncreasePct: pct(both.AvgPowerMW, alone.AvgPowerMW),
			TLP:              both.TLP.TLP,
			TLPAlone:         alone.TLP.TLP,
		}
	}
	return rows
}

// RenderMultitask formats the multitasking study.
func RenderMultitask(rows []MultitaskRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Multitasking: foreground app with a background app vs alone")
		fmt.Fprintln(w, "scenario\tforeground perf change %\tpower increase %\tTLP (combined)\tTLP (alone)")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%+.1f\t%+.1f\t%.2f\t%.2f\n",
				r.Scenario, r.PerfChangePct, r.PowerIncreasePct, r.TLP, r.TLPAlone)
		}
	})
}
