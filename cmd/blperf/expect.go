package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"biglittle"
)

// expectMain writes expected.json: one full-size pass of each workload at
// the seed records its output digest and each explore app's answer, and an
// exhaustive full-fidelity sweep of each explore space records its winner
// for comparison. Regenerate it only when the simulator's outputs change on
// purpose.
func expectMain(args []string) int {
	fs := flag.NewFlagSet("expect", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	out := fs.String("out", "expected.json", "file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp("", "blperf-expect-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)
	h := &harness{exe: exe, root: root}

	e := expectations{Seed: *seed, Digests: map[string]string{}, ExhaustiveWinner: map[string]int{}}
	for _, w := range workloads {
		if w.name == "report-warm" {
			continue // the same bytes as report-cold, which its runs check
		}
		r := h.runPass(childArgs{workload: w.name, seed: *seed})
		os.RemoveAll(r.dir)
		if !r.ok() {
			return fail(fmt.Errorf("%s: %v %v", w.name, r.err, r.Problems))
		}
		e.Digests[w.name] = r.Digest
		if w.name == "explore" {
			e.Explore = r.Refs
		}
		fmt.Fprintf(os.Stderr, "blperf expect: %s %s\n", w.name, short(r.Digest))
	}
	e.Digests["report-warm"] = e.Digests["report-cold"]

	spaces, err := exploreSpaces(*seed, false)
	if err != nil {
		return fail(err)
	}
	for _, space := range spaces {
		rep, err := biglittle.ExploreExhaustive(space, biglittle.ExploreOptions{
			Runner:    &biglittle.LabRunner{Workers: labWorkers()},
			Objective: biglittle.ExploreEDP,
		})
		if err != nil {
			return fail(err)
		}
		app := space.Base.App.Name
		e.ExhaustiveWinner[app] = rep.Winner.Index
		found := strings.HasPrefix(e.Explore[app], fmt.Sprintf("winner=%d ", rep.Winner.Index))
		fmt.Fprintf(os.Stderr, "blperf expect: %s: exhaustive winner %d, exploration found it: %v\n", app, rep.Winner.Index, found)
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	return 0
}
