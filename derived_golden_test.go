package biglittle_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"biglittle"
)

// The golden corpora pin the simulated apps. This test pins the derived
// results of §III-A — Figures 2-3, the L2-size sweep, the branch-predictor
// study and every SPEC trace on both core models — to fixed values. Each
// float64 is printed in its shortest exact form, so a one-ulp change shows.
// The drivers run on a 2-worker runner with no cache, so traces of different
// cache geometries interleave on the workers. `-golden-update` rewrites the
// file.

// goldenFloat prints v exactly: the shortest string that parses back to v.
func goldenFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestDerivedGolden(t *testing.T) {
	o := benchOpts
	o.Runner = biglittle.NewLabRunner(2, nil)
	g := goldenFloat

	var b strings.Builder
	fmt.Fprintf(&b, "derived golden: %d instructions per driver trace\n", o.Instructions)
	b.WriteString("== fig2: workload speedup19 speedup13 speedup08\n")
	for _, r := range biglittle.Fig2(o) {
		fmt.Fprintf(&b, "%s %s %s %s\n", r.Workload, g(r.Speedup19), g(r.Speedup13), g(r.Speedup08))
	}
	b.WriteString("== fig3: workload little13 big08 big13 big19 (mW)\n")
	for _, r := range biglittle.Fig3(o) {
		fmt.Fprintf(&b, "%s %s %s %s %s\n", r.Workload, g(r.Little13), g(r.Big08), g(r.Big13), g(r.Big19))
	}
	b.WriteString("== cache sweep: workload little-L2 KiB=speedup\n")
	for _, r := range biglittle.CacheSweep(o) {
		b.WriteString(r.Workload)
		for _, kb := range []int{256, 512, 1024, 2048} {
			v, ok := r.SpeedupAt[kb]
			if !ok {
				t.Fatalf("cache sweep row %s has no %d KiB point", r.Workload, kb)
			}
			fmt.Fprintf(&b, " %d=%s", kb, g(v))
		}
		if len(r.SpeedupAt) != 4 {
			t.Fatalf("cache sweep row %s has %d points, want 4", r.Workload, len(r.SpeedupAt))
		}
		b.WriteString("\n")
	}
	b.WriteString("== predictors: workload static bimodal tournament ratio\n")
	for _, r := range biglittle.PredictorStudy(o) {
		fmt.Fprintf(&b, "%s %s %s %s %s\n", r.Workload, g(r.Static), g(r.Bimodal), g(r.Tournament), g(r.Ratio))
	}
	b.WriteString("== traces at each profile's full length\n")
	for _, p := range biglittle.SPECProfiles() {
		for _, m := range []biglittle.CoreModel{biglittle.CortexA7(), biglittle.CortexA15()} {
			for _, mhz := range []int{800, 1300, 1900} {
				r := biglittle.RunTrace(m, p, mhz, 0)
				fmt.Fprintf(&b, "%s %s@%d instr=%d cycles=%s seconds=%s cpi=%s ipc=%s\n",
					r.Workload, r.Core, r.FreqMHz, r.Instructions, g(r.Cycles), g(r.Seconds), g(r.CPI), g(r.IPC))
				fmt.Fprintf(&b, "  miss l1i=%s l1d=%s l2=%s cycles base=%s branch=%s mem=%s fetch=%s\n",
					g(r.L1IMissRate), g(r.L1DMissRate), g(r.L2MissRate),
					g(r.BaseCycles), g(r.BranchCycles), g(r.MemCycles), g(r.FetchCycles))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "derived.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no derived golden (regenerate with -golden-update): %v", err)
	}
	if explain := biglittle.ExplainTextDiff(string(want), got); explain != "" {
		t.Fatalf("derived golden mismatch: %s", explain)
	}
}
