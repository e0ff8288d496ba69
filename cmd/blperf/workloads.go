package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"biglittle"
)

// workload is one user-facing job the benchmark times. run executes one pass
// inside a child process; reference, when set, computes in the parent the
// outputs every pass must reproduce.
type workload struct {
	name string
	why  string
	// passes is how many measured passes a full `blperf run` makes.
	passes    int
	run       func(p *pass) error
	reference func(seed int64, smoke bool) (digest string, refs map[string]string, err error)
}

// workloads are the benchmark's six workloads, each a closed loop run one
// pass per fresh child process, so every pass pays process start-up and the
// cold uarch memo the way a user's command does.
var workloads = []workload{
	{
		name:   "report-cold",
		why:    "full-length blreport into an empty cache: 740 jobs, 448 simulated; the event loop dominates",
		passes: 5,
		run:    runReport,
	},
	{
		name:   "report-warm",
		why:    "blreport re-rendered from a full cache: 0 simulated, so the kernel is idle; uarch, cache and JSON decode remain",
		passes: 15,
		run:    runReport,
	},
	{
		name:      "fork-sweep",
		why:       "12 apps x 32-point governor grid forked at 95%, then a disjoint grid reloading every prefix from disk",
		passes:    10,
		run:       runForkSweep,
		reference: forkReference,
	},
	{
		name:   "explore",
		why:    "successive halving over a 3072-point space for 4 apps, cold then warm: thousands of short jobs",
		passes: 4,
		run:    runExplore,
	},
	{
		name:      "fleet-sweep",
		why:       "1200 short jobs through a loopback coordinator and in-process workers: the fleet protocol per job",
		passes:    8,
		run:       runFleet,
		reference: fleetReference,
	},
	{
		name:   "live-session",
		why:    "a 30-phase blserve-style session in 50-150 ms steps with every observer attached and scraped",
		passes: 4,
		run:    runSession,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// labWorkers is the simulation parallelism inside a child: one worker per
// CPU, matching GOMAXPROCS.
func labWorkers() int { return runtime.NumCPU() }

// runReport is one blreport pass. report-cold renders into a fresh cache;
// report-warm re-renders over the cache its preparation pass filled and
// must simulate nothing.
func runReport(p *pass) error {
	cache, dir, err := p.openCache("cache")
	if err != nil {
		return err
	}
	r := &biglittle.LabRunner{Workers: labWorkers(), Cache: cache}
	meter := p.meter(r)
	o := biglittle.ExperimentOptions{Duration: 30 * biglittle.Second, Seed: p.seed, Runner: r}
	if p.smoke {
		// blreport -quick.
		o.Duration = 8 * biglittle.Second
		o.Instructions = 120_000
	}
	if !p.assembled() {
		return nil
	}
	var out bytes.Buffer
	root := p.tr.begin("report", 0, 0)
	renderReport(&out, o, p.tr, root)
	p.tr.end(root)
	p.finish()

	s := r.Stats()
	p.res.Ops, p.res.Failed = int(s.Jobs), int(s.Failures)
	p.res.Digest = digestBytes(out.Bytes())
	if p.cache == "" {
		p.res.DiskMB = dirMB(dir)
	}
	if p.workload == "report-warm" && s.Simulated != 0 {
		p.problemf("warm report simulated %d jobs, want 0", s.Simulated)
	}
	if p.traced {
		p.labLayers(s, meter.seconds())
		for _, sec := range reportSections {
			p.layer("analysis."+sec.key+"_ms", p.tr.total("analysis."+sec.key))
		}
	}
	return nil
}

// simSeed is the simulation seed of fork-sweep, explore and live-session.
// Their cost turns on a few long runs — twelve prefixes, the survivors of
// each rung, one session — so a different simulation seed moves a pass's
// allocations by 1–8%. Their -seed draws other inputs instead: the grids,
// the order of the space, the session's steps.
const simSeed = 1

// forkGrids returns fork-sweep's two governor grids as (sample-ms,
// target-load) pairs. Phase A is BenchmarkForkSweep's 8 x 4 grid, sample-ms
// from 20 in steps of 20 and target-load from 70 in steps of 5; phase B
// starts at 30 and 72. The seed moves each value up within its step
// (sample-ms by up to 9, target-load by up to 2), except phase A's first
// point, the interactive governor's default, whose continuation must equal a
// from-scratch run. Phase A's sample-ms values stay in [20+20i, 30+20i) and
// phase B's in [30+20i, 40+20i), so no point is in both grids.
func forkGrids(seed int64, smoke bool) (a, b [][2]int) {
	nS, nT := 8, 4
	if smoke {
		nS, nT = 2, 2
	}
	rng := rand.New(rand.NewSource(seed))
	grid := func(s0, t0 int, keepFirst bool) [][2]int {
		ss, ts := make([]int, nS), make([]int, nT)
		for i := range ss {
			ss[i] = s0 + 20*i + rng.Intn(10)
		}
		for j := range ts {
			ts[j] = t0 + 5*j + rng.Intn(3)
		}
		if keepFirst {
			ss[0], ts[0] = s0, t0
		}
		var out [][2]int
		for _, s := range ss {
			for _, t := range ts {
				out = append(out, [2]int{s, t})
			}
		}
		return out
	}
	return grid(20, 70, true), grid(30, 72, false)
}

// forkBases returns fork-sweep's per-app base configs and fork specs.
func forkBases(smoke bool) []*biglittle.LabForkSpec {
	apps, d := biglittle.Apps(), 30*biglittle.Second
	if smoke {
		apps, d = apps[:2], 4*biglittle.Second
	}
	specs := make([]*biglittle.LabForkSpec, len(apps))
	for i, app := range apps {
		base := biglittle.DefaultConfig(app)
		base.Seed = simSeed
		base.Duration = d
		specs[i] = &biglittle.LabForkSpec{Base: base, At: d / 20 * 19}
	}
	return specs
}

func forkJobs(specs []*biglittle.LabForkSpec, grid [][2]int) []biglittle.LabJob {
	var jobs []biglittle.LabJob
	for _, spec := range specs {
		for _, g := range grid {
			cfg := spec.Base
			cfg.Gov.SampleMs, cfg.Gov.TargetLoad = g[0], g[1]
			jobs = append(jobs, biglittle.LabJob{Config: cfg, Fork: spec})
		}
	}
	return jobs
}

// runForkSweep is one fork-sweep pass: phase A warms, stores and uses one
// prefix per app; phase B runs a disjoint grid on a new runner over the same
// cache, so every prefix comes back from the disk tier.
func runForkSweep(p *pass) error {
	specs := forkBases(p.smoke)
	gridA, gridB := forkGrids(p.seed, p.smoke)
	jobsA, jobsB := forkJobs(specs, gridA), forkJobs(specs, gridB)
	cache, dir, err := p.openCache("cache")
	if err != nil {
		return err
	}
	if !p.assembled() {
		return nil
	}
	rA := &biglittle.LabRunner{Workers: labWorkers(), Cache: cache}
	meterA := p.meter(rA)
	id := p.tr.begin("fork.phase_a", 0, 0)
	resA, errA := rA.RunAll(jobsA)
	p.tr.end(id)
	rB := &biglittle.LabRunner{Workers: labWorkers(), Cache: cache}
	meterB := p.meter(rB)
	id = p.tr.begin("fork.phase_b", 0, 0)
	resB, errB := rB.RunAll(jobsB)
	p.tr.end(id)
	p.finish()

	sA, sB := rA.Stats(), rB.Stats()
	p.res.Ops = len(jobsA) + len(jobsB)
	p.res.Failed = int(sA.Failures + sB.Failures)
	for _, err := range []error{errA, errB} {
		if err != nil {
			p.problemf("%v", err)
		}
	}
	if sA.PrefixMisses != int64(len(specs)) {
		p.problemf("phase A simulated %d prefixes, want %d", sA.PrefixMisses, len(specs))
	}
	if sB.PrefixMisses != 0 {
		p.problemf("phase B simulated %d prefixes, want 0 (all from disk)", sB.PrefixMisses)
	}
	p.res.Refs = map[string]string{}
	for i, spec := range specs {
		d, err := digestJSON(resA[i*len(gridA)])
		if err != nil {
			return err
		}
		p.res.Refs[spec.Base.App.Name] = d
	}
	if p.res.Digest, err = digestJSON([][]biglittle.Result{resA, resB}); err != nil {
		return err
	}
	p.res.DiskMB = dirMB(dir)
	if p.traced {
		prefixS := float64(sA.PrefixMisses+sB.PrefixMisses) * specs[0].At.Seconds()
		p.labLayers(addStats(sA, sB), meterA.seconds()+meterB.seconds()+prefixS)
		return snapshotProbe(p, specs, cache, dir)
	}
	return nil
}

// forkReference runs each app's base config from scratch: the first grid
// point of phase A must reproduce it byte for byte.
func forkReference(_ int64, smoke bool) (string, map[string]string, error) {
	refs := map[string]string{}
	for _, spec := range forkBases(smoke) {
		d, err := digestJSON(biglittle.Run(spec.Base))
		if err != nil {
			return "", nil, err
		}
		refs[spec.Base.App.Name] = d
	}
	return "", refs, nil
}

// exploreApps are the explore workload's apps, one cold and one warm
// exploration each.
var exploreApps = []string{"fifa15", "bbench", "eternity_warrior", "browser"}

// exploreSpaces returns one search space per explore app: BenchmarkExplore's
// 3072-point cores x governor x scheduler x sample-ms x target-load space.
// The cores dimension makes the space unforkable, so every screening run is
// a short from-scratch job.
//
// The seed shuffles the order of the cores, governor and scheduler values,
// so each seed numbers the same points differently. Sample-ms and
// target-load keep their order: many of their points tie (the performance
// and powersave governors ignore both), ties are broken by index, and
// shuffling them too changed which points survived and with them a pass's
// allocations by 1–2% between seeds.
func exploreSpaces(seed int64, smoke bool) ([]biglittle.ExploreSpace, error) {
	names, d := exploreApps, 30*biglittle.Second
	dims := []biglittle.ExploreDim{
		{Key: "cores", Values: []string{"L4+B4", "L4+B2", "L4+B1", "L4", "L2+B2", "L2+B1", "L2", "L1+B1"}},
		{Key: "governor", Values: []string{"interactive", "performance", "powersave", "ondemand", "conservative", "past"}},
		{Key: "scheduler", Values: []string{"hmp", "efficiency", "parallelism", "eas"}},
		{Key: "sample-ms", Values: []string{"10", "60", "150", "400"}},
		{Key: "target-load", Values: []string{"50", "70", "90", "99"}},
	}
	if smoke {
		names, d = names[:1], 4*biglittle.Second
		dims = []biglittle.ExploreDim{
			{Key: "cores", Values: []string{"L4+B4", "L4"}},
			{Key: "governor", Values: []string{"interactive", "powersave"}},
			{Key: "sample-ms", Values: []string{"60", "150"}},
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, d := range dims {
		if d.Key == "cores" || d.Key == "governor" || d.Key == "scheduler" {
			rng.Shuffle(len(d.Values), func(i, j int) { d.Values[i], d.Values[j] = d.Values[j], d.Values[i] })
		}
	}
	spaces := make([]biglittle.ExploreSpace, len(names))
	for i, name := range names {
		app, err := biglittle.AppByName(name)
		if err != nil {
			return nil, err
		}
		base := biglittle.DefaultConfig(app)
		base.Seed = simSeed
		base.Duration = d
		spaces[i] = biglittle.ExploreSpace{Base: base, Dims: dims}
	}
	return spaces, nil
}

func exploreOptions(r *biglittle.LabRunner, space biglittle.ExploreSpace, seed int64, smoke bool) biglittle.ExploreOptions {
	o := biglittle.ExploreOptions{
		Runner:      r,
		Objective:   biglittle.ExploreEDP,
		Eta:         4,
		Keep:        16,
		MinDuration: space.Base.Duration / 64,
		Seed:        seed,
	}
	if smoke {
		o.Eta, o.Keep, o.MinDuration = 2, 2, space.Base.Duration/4
	}
	return o
}

// explorePick formats an exploration's answer: the winner and the frontier
// as space indices.
func explorePick(rep *biglittle.ExploreReport) string {
	idx := make([]int, len(rep.Frontier))
	for i, pt := range rep.Frontier {
		idx[i] = pt.Index
	}
	return fmt.Sprintf("winner=%d frontier=%v", rep.Winner.Index, idx)
}

// runExplore is one explore pass: for each app, a cold exploration into a
// fresh cache and an identical warm replay that must simulate nothing and
// render the same bytes.
func runExplore(p *pass) error {
	spaces, err := exploreSpaces(p.seed, p.smoke)
	if err != nil {
		return err
	}
	for i := range spaces {
		if err := spaces[i].Validate(); err != nil {
			return err
		}
	}
	if !p.assembled() {
		return nil
	}
	type appRun struct {
		cold, warm         *biglittle.ExploreReport
		coldOut, warmOut   bytes.Buffer
		coldStat, warmStat biglittle.LabStats
		simS               float64
		dir                string
		cache              *biglittle.LabCache
	}
	runs := make([]*appRun, len(spaces))
	for i, space := range spaces {
		a := &appRun{}
		runs[i] = a
		var err error
		if a.cache, a.dir, err = p.openCache(space.Base.App.Name); err != nil {
			return err
		}
		cold := &biglittle.LabRunner{Workers: labWorkers(), Cache: a.cache}
		mc := p.meter(cold)
		id := p.tr.begin("explore.cold", 0, 0)
		a.cold, err = biglittle.Explore(space, exploreOptions(cold, space, p.seed, p.smoke))
		p.tr.end(id)
		if err != nil {
			return err
		}
		a.cold.Render(&a.coldOut)
		warm := &biglittle.LabRunner{Workers: labWorkers(), Cache: a.cache}
		mw := p.meter(warm)
		id = p.tr.begin("explore.warm", 0, 0)
		a.warm, err = biglittle.Explore(space, exploreOptions(warm, space, p.seed, p.smoke))
		p.tr.end(id)
		if err != nil {
			return err
		}
		a.warm.Render(&a.warmOut)
		a.coldStat, a.warmStat = cold.Stats(), warm.Stats()
		a.simS = mc.seconds() + mw.seconds()
	}
	p.finish()

	var all bytes.Buffer
	var stats []biglittle.LabStats
	var exhaustiveNs, simulatedNs, simS, coldJobs float64
	p.res.Refs = map[string]string{}
	for i, a := range runs {
		app := spaces[i].Base.App.Name
		if !bytes.Equal(a.coldOut.Bytes(), a.warmOut.Bytes()) {
			p.problemf("%s: warm exploration rendered differently from cold", app)
		}
		if a.warmStat.Simulated != 0 {
			p.problemf("%s: warm exploration simulated %d jobs, want 0", app, a.warmStat.Simulated)
		}
		all.Write(a.coldOut.Bytes())
		p.res.Refs[app] = explorePick(a.cold)
		stats = append(stats, a.coldStat, a.warmStat)
		p.res.DiskMB += dirMB(a.dir)
		exhaustiveNs += float64(a.cold.ExhaustiveNs)
		simulatedNs += float64(a.cold.SimulatedNs)
		simS += a.simS
		coldJobs += float64(a.coldStat.Jobs)
	}
	total := addStats(stats...)
	p.res.Ops, p.res.Failed = int(total.Jobs), int(total.Failures)
	p.res.Digest = digestBytes(all.Bytes())
	if p.traced {
		p.labLayers(total, simS)
		p.layer("explore.cold_s", p.tr.total("explore.cold")/1000)
		p.layer("explore.warm_s", p.tr.total("explore.warm")/1000)
		p.layer("explore.rungs", float64(len(runs[0].cold.Rungs)))
		p.layer("explore.jobs", coldJobs)
		p.layer("explore.x_sim_avoided", ratio(exhaustiveNs, simulatedNs))
		last := runs[len(runs)-1]
		rung0 := last.cold.Rungs[0]
		return labProbe(p, spaces[len(spaces)-1], rung0.Duration, rung0.ForkAt, last.cache)
	}
	return nil
}
