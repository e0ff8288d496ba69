package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"biglittle"
)

// fleetJobs returns fleet-sweep's jobs: every app at 100 governor sampling
// intervals, 2 s simulated each, each job with its own simulation seed drawn
// from seed. Independent seeds average out: one seed shared by all 1200 jobs
// moved a pass's allocations by about 1% between seeds, 1200 seeds by 0.3%.
func fleetJobs(seed int64, smoke bool) []biglittle.LabJob {
	apps, n, d := biglittle.Apps(), 100, 2*biglittle.Second
	if smoke {
		apps, n, d = apps[:2], 5, biglittle.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var jobs []biglittle.LabJob
	for _, app := range apps {
		for i := 0; i < n; i++ {
			cfg := biglittle.DefaultConfig(app)
			cfg.Seed = rng.Int63()
			cfg.Duration = d
			cfg.Gov.SampleMs = 10 + 10*i
			jobs = append(jobs, biglittle.LabJob{Config: cfg})
		}
	}
	return jobs
}

// fleetWidth is how many fleet workers and how many concurrent callers
// fleet-sweep runs: together they use at most one thread (and one loopback
// connection) per CPU.
func fleetWidth() int { return max(1, labWorkers()/2) }

// runFleet is one fleet-sweep pass: a coordinator served over loopback HTTP
// with no result cache, fleetWidth workers leasing from it, and fleetWidth
// callers each submitting its next job as soon as the previous one returns.
func runFleet(p *pass) error {
	jobs := fleetJobs(p.seed, p.smoke)
	width := fleetWidth()

	coord := biglittle.NewFleetCoordinator(biglittle.FleetOptions{})
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	transport := &http.Transport{MaxConnsPerHost: 2 * width, MaxIdleConnsPerHost: 2 * width}
	defer transport.CloseIdleConnections()
	client := &biglittle.FleetClient{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: transport}}

	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	runners := make([]*biglittle.LabRunner, width)
	for i := range runners {
		runners[i] = &biglittle.LabRunner{Workers: 1}
		w := &biglittle.FleetWorker{Client: client, Runner: runners[i], ID: fmt.Sprintf("w%d", i)}
		workers.Add(1)
		go func() {
			defer workers.Done()
			w.Run(ctx)
		}()
	}
	defer func() {
		cancel()
		workers.Wait()
	}()
	if !p.assembled() {
		return nil
	}

	results := make([]biglittle.Result, len(jobs))
	latMs := make([]float64, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var callers sync.WaitGroup
	for c := 0; c < width; c++ {
		callers.Add(1)
		go func(lane int) {
			defer callers.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				t := time.Now()
				results[i], errs[i] = fleetOp(client, jobs[i], p.tr, lane)
				latMs[i] = ms(time.Since(t))
			}
		}(c + 1)
	}
	callers.Wait()
	p.finish()

	p.res.Ops = len(jobs)
	for _, err := range errs {
		if err != nil {
			if p.res.Failed == 0 {
				p.problemf("fleet job: %v", err)
			}
			p.res.Failed++
		}
	}
	st := coord.Stats()
	if st.FailedJobs != 0 {
		p.problemf("coordinator reports %d failed jobs", st.FailedJobs)
	}
	p.opLatencies(latMs)
	if p.res.Digest, err = digestJSON(results); err != nil {
		return err
	}
	if p.traced {
		var stats []biglittle.LabStats
		for _, r := range runners {
			stats = append(stats, r.Stats())
		}
		p.labLayers(addStats(stats...), float64(len(jobs))*jobs[0].Config.Duration.Seconds())
		p.layer("fleet.submit_ms", median(p.tr.durations("fleet.submit")))
		p.layer("fleet.await_ms", median(p.tr.durations("fleet.await")))
		p.layer("fleet.completed", float64(st.Completed))
		p.layer("fleet.duplicates", float64(coord.Tel().Counter("fleet_duplicate_results").Value()))
		p.layer("fleet.requeued", float64(st.Retries))
		// The fleet's own cost per job: op latency minus a local run of the
		// same job.
		local := make([]float64, len(jobs))
		for i, job := range jobs {
			t := time.Now()
			biglittle.Run(job.Config)
			local[i] = ms(time.Since(t))
		}
		p.layer("fleet.overhead_ms", median(latMs)-median(local))
	}
	return nil
}

// fleetOp runs one job on the fleet. Untraced it is exactly what a sweep's
// runner calls (Client.Execute); traced, it makes the same submit and await
// calls one by one so each gets its own span.
func fleetOp(client *biglittle.FleetClient, job biglittle.LabJob, tr *tracer, lane int) (biglittle.Result, error) {
	if tr == nil {
		res, ok, err := client.Execute(job)
		if err == nil && !ok {
			err = errors.New("fleet declined the job")
		}
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	op := tr.begin("fleet.op", 0, lane)
	defer tr.end(op)
	id := tr.begin("fleet.submit", op, lane)
	spec, err := biglittle.FleetSpecFromJob(job)
	if err != nil {
		tr.end(id)
		return biglittle.Result{}, err
	}
	rep, err := client.Submit(ctx, spec)
	tr.end(id)
	if err != nil {
		return biglittle.Result{}, err
	}
	id = tr.begin("fleet.await", op, lane)
	defer tr.end(id)
	return client.Await(ctx, rep.ID)
}

// fleetReference runs fleet-sweep's jobs in process: the fleet must return
// the same results byte for byte.
func fleetReference(seed int64, smoke bool) (string, map[string]string, error) {
	r := &biglittle.LabRunner{Workers: labWorkers()}
	res, err := r.RunAll(fleetJobs(seed, smoke))
	if err != nil {
		return "", nil, err
	}
	d, err := digestJSON(res)
	return d, nil, err
}

// sessionApps cycle through live-session's phases.
var sessionApps = []string{"browser", "eternity_warrior", "video_player"}

// sessionSteps returns how far each Advance moves simulated time. Like
// blserve's loop, which advances by however much wall time has passed, the
// steps vary: each is drawn from 50–150 ms (100 ms on average) until they
// cover total. The session itself does not depend on the seed, and its
// outputs do not depend on how it is stepped.
func sessionSteps(seed int64, total biglittle.Time) []biglittle.Time {
	rng := rand.New(rand.NewSource(seed))
	var steps []biglittle.Time
	for at := biglittle.Time(0); at < total; {
		d := biglittle.Time(50+rng.Intn(101)) * biglittle.Millisecond
		steps = append(steps, d)
		at += d
	}
	return steps
}

// scrapeEvery is how many steps pass between two observer scrapes.
const scrapeEvery = 10

func sessionPhases(smoke bool) ([]biglittle.SessionPhase, error) {
	reps, d := 10, 20*biglittle.Second
	if smoke {
		reps, d = 1, 2*biglittle.Second
	}
	var phases []biglittle.SessionPhase
	for i := 0; i < reps; i++ {
		for _, name := range sessionApps {
			app, err := biglittle.AppByName(name)
			if err != nil {
				return nil, err
			}
			phases = append(phases, biglittle.SessionPhase{App: app, Duration: d})
		}
	}
	return phases, nil
}

// advanceAll moves live through steps, returning each step's latency in ms;
// scrape, when non-nil, runs after every scrapeEvery-th step.
func advanceAll(live *biglittle.LiveSession, steps []biglittle.Time, tr *tracer, scrape func()) []float64 {
	lat := make([]float64, len(steps))
	for i, d := range steps {
		id := tr.begin("session.advance", 0, 0)
		t := time.Now()
		live.Advance(live.Now() + d)
		lat[i] = ms(time.Since(t))
		tr.end(id)
		if scrape != nil && (i+1)%scrapeEvery == 0 {
			id := tr.begin("session.scrape", 0, 0)
			scrape()
			tr.end(id)
		}
	}
	return lat
}

// runSession is one live-session pass: a blserve-style session with
// telemetry, profiler, xray, auditor and digest recorder attached, advanced
// step by step and scraped the way /metrics and /snapshot read it.
func runSession(p *pass) error {
	phases, err := sessionPhases(p.smoke)
	if err != nil {
		return err
	}
	cfg := biglittle.NewSession(phases...)
	cfg.Seed = simSeed
	tel, prof, xr := biglittle.NewTelemetry(), biglittle.NewProfiler(), biglittle.NewXray()
	aud, dig := biglittle.NewAuditor(), biglittle.NewDigestRecorder()
	cfg.Telemetry, cfg.Profiler, cfg.Xray, cfg.Check, cfg.Digest = tel, prof, xr, aud, dig
	live := biglittle.NewLiveSession(cfg)
	steps := sessionSteps(p.seed, live.Duration())
	if !p.assembled() {
		return nil
	}
	var promUs, snapUs []float64
	var scrapeErr error
	lat := advanceAll(live, steps, p.tr, func() {
		var b bytes.Buffer
		t := time.Now()
		if err := tel.WritePrometheus(&b); err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		promUs = append(promUs, ms(time.Since(t))*1000)
		t = time.Now()
		prof.Snapshot(live.Now())
		snapUs = append(snapUs, ms(time.Since(t))*1000)
	})
	p.finish()

	p.res.Ops = len(lat)
	p.opLatencies(lat)
	if scrapeErr != nil {
		p.problemf("scrape: %v", scrapeErr)
	}
	if !live.Done() {
		p.problemf("session not done after %d steps", len(lat))
	}
	if err := aud.Err(); err != nil {
		p.problemf("%v", err)
	}
	snap := prof.Snapshot(live.Now())
	meter := live.Sampler.EnergyMJ()
	if meter == 0 || math.Abs(snap.TotalEnergyMJ-meter) > 0.001*meter {
		p.problemf("profiler attributes %.3f mJ, meter reads %.3f mJ (want within 0.1%%)", snap.TotalEnergyMJ, meter)
	}
	res := live.Result()
	if p.res.Digest, err = digestJSON(struct {
		Result biglittle.SessionResult
		Render string
		Digest uint64
	}{res, biglittle.RenderSession(res), dig.Chain().Fingerprint()}); err != nil {
		return err
	}
	if !p.traced {
		return nil
	}
	// A phase's cost is that of the steps wholly inside it.
	firstEnd, lastStart := phases[0].Duration, live.Duration()-phases[len(phases)-1].Duration
	var first, last float64
	var at biglittle.Time
	for i, d := range steps {
		if at+d <= firstEnd {
			first += lat[i]
		}
		if at >= lastStart {
			last += lat[i]
		}
		at += d
	}
	p.layer("session.phase_first_ms", first)
	p.layer("session.phase_last_ms", last)
	p.layer("session.phase_growth", ratio(last, first))
	p.layer("session.tasks_end", float64(len(live.Sys.Tasks())))
	p.layer("session.sim_rate", ratio(live.Duration().Seconds(), sum(lat)/1000))
	p.layer("telemetry.prom_us", median(promUs))
	p.layer("profile.snapshot_us", median(snapUs))
	p.layer("xray.spans", float64(int64(xr.Len())+xr.Dropped()))
	rep := aud.Report()
	p.layer("check.violations", float64(len(rep.Violations)+rep.Dropped))
	p.layer("delta.windows", float64(len(dig.Chain().Digests)))
	// The observers' cost: the same session with none attached and no
	// scrapes, step for step.
	bare := biglittle.NewSession(phases...)
	bare.Seed = simSeed
	off := advanceAll(biglittle.NewLiveSession(bare), steps, nil, nil)
	p.layer("observers.overhead_pct", 100*(ratio(sum(lat), sum(off))-1))
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
