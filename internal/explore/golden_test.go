package explore

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
)

// The report golden pins, for a few representative explorations under every
// objective, everything a caller can read off a Report: the rendered bytes,
// the planned and exhaustive costs, each rung's shape and promotion counts,
// and each frontier point's index, description and objective values to the
// bit. A cacheless and a cached runner must both reproduce it. Regenerate it
// with
//
//	go test ./internal/explore -run TestReportGolden -golden-update
//
// only for an intentional change to what an exploration finds or prints.
var updateGolden = flag.Bool("golden-update", false, "rewrite testdata/report.golden from current output")

const reportGolden = "testdata/report.golden"

type goldenCase struct {
	name  string
	space Space
	opts  Options // Runner and Objective are filled in per run
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	app := func(name string) apps.App {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	fifa := core.DefaultConfig(app("fifa15"))
	fifa.Duration = 2 * event.Second
	cores := Space{Base: fifa, Dims: []Dim{
		{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4+B1", "L4", "L2+B2", "L2+B1", "L2", "L1+B1"}},
		{Key: "governor", Values: []string{"interactive", "performance", "powersave"}},
	}}
	governors := Space{Base: fifa, Dims: []Dim{
		{Key: "governor", Values: []string{"interactive", "performance", "powersave", "userspace", "ondemand", "conservative", "past"}},
		{Key: "sample-ms", Values: []string{"20", "60"}},
	}}
	bb := core.DefaultConfig(app("bbench"))
	bb.Duration = 1 * event.Second
	tunables := Space{Base: bb, Dims: []Dim{
		{Key: "sample-ms", Values: []string{"20", "40", "60", "80"}},
		{Key: "target-load", Values: []string{"70", "80", "90", "95"}},
	}}
	flat := Space{Base: bb, Dims: []Dim{
		{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4", "L2+B2"}},
		{Key: "governor", Values: []string{"interactive", "powersave"}},
	}}
	full := plannedNs(ladder(16, 4, 2, bb.Duration, bb.Duration/16, true))
	return []goldenCase{
		// Unforkable; the MinDuration floor makes rungs 0 and 1 both run
		// from scratch at D/4.
		{"cores-repeat", cores, Options{Eta: 2, Keep: 3, MinDuration: fifa.Duration / 4}},
		{"governor-fork", governors, Options{Eta: 2, Keep: 3}},
		{"budget-sampled", tunables, Options{Eta: 2, Budget: event.Time(full / 2), Seed: 3}},
		{"check-final", tunables, Options{Eta: 2, Check: true}},
		// Every rung, the final one included, runs from scratch at D.
		{"flat", flat, Options{Eta: 2, Keep: 2, MinDuration: bb.Duration}},
		{"flat-check", flat, Options{Eta: 2, Keep: 2, MinDuration: bb.Duration, Check: true}},
	}
}

// goldenEntry renders one exploration's golden section.
func goldenEntry(name string, rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s objective=%s\n", name, rep.Objective)
	rep.Render(&b)
	fmt.Fprintf(&b, "planned_ns=%d exhaustive_ns=%d\n", rep.PlannedNs, rep.ExhaustiveNs)
	for i, rg := range rep.Rungs {
		fmt.Fprintf(&b, "rung %d: candidates=%d duration=%d fork_at=%d promoted=%d pruned=%d\n",
			i, rg.Candidates, int64(rg.Duration), int64(rg.ForkAt), rg.Promoted, rg.Pruned)
	}
	for _, p := range rep.Frontier {
		fmt.Fprintf(&b, "point %d %s energy=%016x delay=%016x score=%016x\n", p.Index, p.Desc,
			math.Float64bits(p.EnergyMJ), math.Float64bits(p.DelayS), math.Float64bits(p.Score))
	}
	fmt.Fprintf(&b, "winner %d %s\n", rep.Winner.Index, rep.Winner.Desc)
	return b.String()
}

func TestReportGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases(t) {
		cache, err := lab.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{Energy, EDP, Runtime} {
			var entries []string
			for _, r := range []*lab.Runner{{Workers: 2}, {Workers: 2, Cache: cache}} {
				opts := c.opts
				opts.Runner, opts.Objective = r, obj
				rep, err := Run(c.space, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, obj, err)
				}
				entries = append(entries, goldenEntry(c.name, rep))
			}
			if entries[0] != entries[1] {
				t.Fatalf("%s %s: cached runner's report differs from the cacheless one's:\n--- cacheless\n%s--- cached\n%s",
					c.name, obj, entries[0], entries[1])
			}
			got.WriteString(entries[0])
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(reportGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatalf("no report golden (regenerate with -golden-update): %v", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("report golden mismatch at line %d:\nwant %s\ngot  %s", i+1, wl[i], gl[i])
		}
	}
	if len(wl) != len(gl) {
		t.Fatalf("report golden has %d lines, output %d", len(wl), len(gl))
	}
}
