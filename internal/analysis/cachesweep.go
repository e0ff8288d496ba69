package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/synth"
	"biglittle/internal/uarch"
)

// CacheSweepRow shows one workload's big-over-little speedup (both at
// 1.3 GHz) as a function of the little core's L2 capacity.
type CacheSweepRow struct {
	Workload string
	// SpeedupAt maps little-L2 kilobytes to the same-frequency speedup.
	SpeedupAt map[int]float64
}

// cacheSweepSizes are the little-L2 capacities swept, in KiB. 512 is the
// real A7 cluster; 2048 equalizes the two clusters' L2s.
var cacheSweepSizes = []int{256, 512, 1024, 2048}

// CacheSweep probes the paper's §III-A attribution — "with the difference
// in the L2 size ... a big core always performs better ... The speedup can
// be up-to 4.5 times with the same 1.3GHz frequency" — by growing the
// little cluster's L2: for the cache-sensitive workloads the same-frequency
// gap must collapse toward the pure-microarchitecture gap, while the
// compute-dense workloads barely move.
func CacheSweep(o Options) []CacheSweepRow {
	o = o.withDefaults()
	big := uarch.CortexA15()
	profiles := synth.SPEC()
	rows := make([]CacheSweepRow, len(profiles))
	o.forEach(len(profiles), func(i int) {
		p := profiles[i]
		ref := o.uarchRun(big, p, 1300)
		row := CacheSweepRow{Workload: p.Name, SpeedupAt: map[int]float64{}}
		for _, kb := range cacheSweepSizes {
			little := uarch.CortexA7()
			little.L2.SizeB = kb << 10
			r := o.uarchRun(little, p, 1300)
			row.SpeedupAt[kb] = uarch.Speedup(ref, r)
		}
		rows[i] = row
	})
	return rows
}

// RenderCacheSweep formats the L2-size ablation.
func RenderCacheSweep(rows []CacheSweepRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "L2-size ablation: big@1.3GHz speedup vs little@1.3GHz with a grown little L2")
		fmt.Fprint(w, "workload")
		for _, kb := range cacheSweepSizes {
			fmt.Fprintf(w, "\tL2=%dK", kb)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprint(w, r.Workload)
			for _, kb := range cacheSweepSizes {
				fmt.Fprintf(w, "\t%.2f", r.SpeedupAt[kb])
			}
			fmt.Fprintln(w)
		}
	})
}
