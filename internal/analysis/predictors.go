package analysis

import (
	"fmt"
	"text/tabwriter"

	"biglittle/internal/bpred"
	"biglittle/internal/lab"
	"biglittle/internal/synth"
)

// PredictorRow holds one workload's misprediction rates under the predictor
// classes of the two core types.
type PredictorRow struct {
	Workload   string
	Static     float64 // static-taken baseline
	Bimodal    float64 // A7-class
	Tournament float64 // A15-class
	// Ratio is tournament/bimodal — the measured counterpart of the uarch
	// model's PredictorFactor (0.55).
	Ratio float64
}

// predictorKey is every input of one predictor-study row, the identity of
// its memoized result.
type predictorKey struct {
	Profile      synth.Profile
	Instructions int
}

// PredictorStudy measures real bimodal and tournament predictors over
// structured branch traces derived from each SPEC-like profile, validating
// the PredictorFactor the Cortex-A15 CPI model assumes. The branches are
// streamed through the three predictors, never stored. Each row is memoized
// as a derived result, so a cache hit skips the trace as well.
func PredictorStudy(o Options) []PredictorRow {
	o = o.withDefaults()
	n := o.Instructions
	if n <= 0 {
		n = 200_000
	}
	profiles := synth.SPEC()
	rows := make([]PredictorRow, len(profiles))
	o.forEach(len(profiles), func(i int) {
		p := profiles[i]
		rows[i] = lab.Memo(o.lab(), "bpred", predictorKey{Profile: p, Instructions: n}, func() PredictorRow {
			rates := bpred.MeasureStream(p, n,
				bpred.StaticTaken{}, bpred.CortexA7Predictor(), bpred.CortexA15Predictor())
			row := PredictorRow{Workload: p.Name, Static: rates[0], Bimodal: rates[1], Tournament: rates[2]}
			if row.Bimodal > 0 {
				row.Ratio = row.Tournament / row.Bimodal
			}
			return row
		})
	})
	return rows
}

// RenderPredictors formats the predictor validation study.
func RenderPredictors(rows []PredictorRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Branch predictor validation (mispredict rates; A15 CPI model assumes tournament/bimodal = 0.55)")
		fmt.Fprintln(w, "workload\tstatic\tbimodal (A7)\ttournament (A15)\tratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.2f\n",
				r.Workload, r.Static, r.Bimodal, r.Tournament, r.Ratio)
		}
	})
}
