package profile

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Summary renders the snapshot as a per-task text table plus the
// conservation footer — the report blserve prints on shutdown and
// examples/profile walks through.
func (s Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d tasks over %v (%d power intervals)\n",
		len(s.Tasks), s.ElapsedNs, s.Intervals)
	if len(s.Tasks) == 0 {
		return b.String()
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "task\trun ms\tbig ms\tlittle ms\ttiny ms\twait ms\tsleep ms\tenergy mJ\tmigr (hmp ↑/↓)\tstall ms")
	for _, t := range s.Tasks {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d (%d %d/%d)\t%.2f\n",
			t.Name,
			t.RunNs.Milliseconds(), t.BigRunNs.Milliseconds(),
			t.LittleRunNs.Milliseconds(), t.TinyRunNs.Milliseconds(),
			t.WaitNs.Milliseconds(), t.SleepNs.Milliseconds(),
			t.EnergyMJ,
			t.Migrations, t.HMPMigrations, t.UpMigrations, t.DownMigrations,
			t.MigrationStallNs.Milliseconds())
	}
	w.Flush()
	fmt.Fprintf(&b, "energy: %.1f mJ attributed + %.1f mJ unattributed (idle+base) = %.1f mJ total\n",
		s.AttributedMJ, s.UnattributedMJ, s.TotalEnergyMJ)
	return b.String()
}

// promEscape escapes a Prometheus label value.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// appendTask appends the start of a per-task series: the metric and its
// quoted task label, leaving the label set open.
func appendTask(b []byte, metric, task string) []byte {
	return strconv.AppendQuote(append(append(b, metric...), "{task="...), promEscape(task))
}

// appendFloat appends v the way %g prints it, and a newline.
func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendGauge appends one per-task line: the series with the task label
// and labels, then v.
func appendGauge(b []byte, metric, task, labels string, v float64) []byte {
	return appendFloat(append(append(appendTask(b, metric, task), labels...), "} "...), v)
}

// WritePrometheus renders the snapshot's per-task attribution as Prometheus
// text-format gauges, labelled by task (and core type / MHz where it
// applies). blserve appends this to the telemetry registry's exposition on
// /metrics. The text is appended into one buffer, sized from the task table
// up front.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	size := 1024
	for _, t := range s.Tasks {
		size += (8 + len(t.Residency)) * (128 + 2*len(t.Name))
	}
	b := make([]byte, 0, size)

	b = append(b, "# HELP biglittle_task_run_seconds Per-task run time split by core type.\n"...)
	b = append(b, "# TYPE biglittle_task_run_seconds gauge\n"...)
	for _, t := range s.Tasks {
		b = appendGauge(b, "biglittle_task_run_seconds", t.Name, `,type="big"`, t.BigRunNs.Seconds())
		b = appendGauge(b, "biglittle_task_run_seconds", t.Name, `,type="little"`, t.LittleRunNs.Seconds())
		if t.TinyRunNs > 0 {
			b = appendGauge(b, "biglittle_task_run_seconds", t.Name, `,type="tiny"`, t.TinyRunNs.Seconds())
		}
	}

	b = append(b, "# HELP biglittle_task_wait_seconds Per-task runnable-wait (schedstat run_delay).\n"...)
	b = append(b, "# TYPE biglittle_task_wait_seconds gauge\n"...)
	for _, t := range s.Tasks {
		b = appendGauge(b, "biglittle_task_wait_seconds", t.Name, "", t.WaitNs.Seconds())
	}

	b = append(b, "# HELP biglittle_task_energy_millijoules Per-task attributed system energy.\n"...)
	b = append(b, "# TYPE biglittle_task_energy_millijoules gauge\n"...)
	for _, t := range s.Tasks {
		b = appendGauge(b, "biglittle_task_energy_millijoules", t.Name, "", t.EnergyMJ)
	}

	b = append(b, "# HELP biglittle_task_migrations_total Per-task migrations by direction.\n"...)
	b = append(b, "# TYPE biglittle_task_migrations_total gauge\n"...)
	for _, t := range s.Tasks {
		b = append(appendTask(b, "biglittle_task_migrations_total", t.Name), `,direction="up"} `...)
		b = append(strconv.AppendInt(b, int64(t.UpMigrations), 10), '\n')
		b = append(appendTask(b, "biglittle_task_migrations_total", t.Name), `,direction="down"} `...)
		b = append(strconv.AppendInt(b, int64(t.DownMigrations), 10), '\n')
	}

	b = append(b, "# HELP biglittle_task_residency_seconds Per-task run time at each (core type, MHz).\n"...)
	b = append(b, "# TYPE biglittle_task_residency_seconds gauge\n"...)
	for _, t := range s.Tasks {
		for _, r := range t.Residency {
			b = append(appendTask(b, "biglittle_task_residency_seconds", t.Name), ",type="...)
			b = append(strconv.AppendQuote(b, r.Type), `,mhz="`...)
			b = append(strconv.AppendInt(b, int64(r.MHz), 10), `"} `...)
			b = appendFloat(b, r.Ns.Seconds())
		}
	}

	b = append(b, "# HELP biglittle_profile_unattributed_millijoules Idle and base-rail energy no task ran under.\n"...)
	b = append(b, "# TYPE biglittle_profile_unattributed_millijoules gauge\n"...)
	b = appendFloat(append(b, "biglittle_profile_unattributed_millijoules "...), s.UnattributedMJ)
	b = append(b, "# TYPE biglittle_profile_attributed_millijoules gauge\n"...)
	b = appendFloat(append(b, "biglittle_profile_attributed_millijoules "...), s.AttributedMJ)

	_, err := w.Write(b)
	return err
}

// ResidencyPct returns one task's active-time share per frequency of a core
// type, aligned with freqs — the per-task Figure 9/10 row.
func (t TaskSnapshot) ResidencyPct(coreType string, freqs []int) []float64 {
	out := make([]float64, len(freqs))
	var total float64
	byMHz := map[int]float64{}
	for _, r := range t.Residency {
		if r.Type == coreType {
			byMHz[r.MHz] = float64(r.Ns)
			total += float64(r.Ns)
		}
	}
	if total == 0 {
		return out
	}
	idx := make(map[int]int, len(freqs))
	for i, f := range freqs {
		idx[f] = i
	}
	for mhz, ns := range byMHz {
		if i, ok := idx[mhz]; ok {
			out[i] = 100 * ns / total
		}
	}
	return out
}
