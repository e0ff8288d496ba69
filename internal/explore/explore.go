package explore

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"

	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
)

// Objective is the scalar the search minimizes when it must rank
// candidates (the Pareto front itself is always bi-objective).
type Objective int

const (
	// Energy minimizes total energy consumed over the run.
	Energy Objective = iota
	// EDP minimizes the energy-delay product — the paper's preferred
	// single-number efficiency metric.
	EDP
	// Runtime minimizes delay (inverse performance): mean interaction
	// latency for latency apps, frame time for FPS apps.
	Runtime
)

func (o Objective) String() string {
	switch o {
	case Energy:
		return "energy"
	case EDP:
		return "edp"
	case Runtime:
		return "runtime"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective parses the -objective flag vocabulary.
func ParseObjective(s string) (Objective, error) {
	for _, o := range []Objective{Energy, EDP, Runtime} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("explore: unknown objective %q (want energy, edp, or runtime)", s)
}

// Options tunes one exploration. The zero value (plus a Runner) is usable.
type Options struct {
	// Runner executes the rungs. Required; its cache makes repeated
	// explorations free and its Remote ships full-fidelity from-scratch
	// rungs to the fleet (fork-accelerated screening rungs always run
	// locally — snapshots mirror process-local closure state).
	Runner *lab.Runner
	// Objective ranks candidates within a rung (default Energy).
	Objective Objective
	// Budget caps the planned simulated time of the whole ladder, in
	// simulated nanoseconds. When the full space does not fit, rung 0 is
	// downsampled (seeded, deterministic) to the largest candidate count
	// whose ladder fits. 0 means no cap: screen every point.
	Budget event.Time
	// Eta is the halving factor: each screening rung keeps ~1/Eta of its
	// candidates and the next rung runs Eta times longer (default 4).
	Eta int
	// Keep is how many finalists graduate to the full-fidelity final rung
	// (default 4).
	Keep int
	// MinDuration floors the screening fidelity: no rung runs shorter than
	// this (default Base.Duration/16). Raise it when the app's behavior
	// needs longer than that to differentiate configurations.
	MinDuration event.Time
	// Seed drives rung-0 downsampling when Budget forces it. It has no
	// effect when the whole space is screened.
	Seed int64
	// Check audits the final full-fidelity rung with the invariant checker
	// (screening rungs are fork-accelerated and cannot be audited; if the
	// runner itself has Check set, forking is disabled and every rung is
	// audited from scratch instead).
	Check bool
	// Log, when non-nil, narrates the ladder at Info level.
	Log *slog.Logger
}

func (o Options) eta() int {
	if o.Eta < 2 {
		if o.Eta != 0 {
			return 2
		}
		return 4
	}
	return o.Eta
}

func (o Options) keep() int {
	if o.Keep < 1 {
		return 4
	}
	return o.Keep
}

// Rung is one level of the successive-halving ladder.
type Rung struct {
	// Candidates is the planned candidate count entering this rung.
	Candidates int
	// Duration is the simulated duration of each run at this rung.
	Duration event.Time
	// ForkAt, when positive, snapshot-accelerates the rung: one shared
	// prefix of the base config runs to this time and every candidate
	// resumes from it. 0 means from-scratch runs (always the final rung).
	ForkAt event.Time
}

// RungReport is what one executed rung did.
type RungReport struct {
	Candidates int
	Duration   event.Time
	ForkAt     event.Time
	// Promoted is how many candidates survived into the next rung (or, at
	// the final rung, onto the frontier); Pruned is the rest.
	Promoted int
	Pruned   int
	// SimulatedNs is the simulated time actually executed for this rung —
	// continuations, prefix builds, and remote runs included. Zero when the
	// whole rung was served from the result cache.
	SimulatedNs int64
}

// Point is one evaluated configuration.
type Point struct {
	// Index is the point's position in the space's enumeration order.
	Index int
	// Desc is the override spec producing it ("sample-ms=60,target-load=85").
	Desc string
	// EnergyMJ and DelayS are the two Pareto objectives: total energy in
	// millijoules and delay in seconds (inverse Result.Performance; +Inf
	// when the run produced no performance signal).
	EnergyMJ float64
	DelayS   float64
	// Score is the scalar objective value used for ranking.
	Score  float64
	Result core.Result
}

// Report is the outcome of one exploration.
type Report struct {
	App       string
	Objective Objective
	// SpaceSize is the declared space; Screened is how many points entered
	// rung 0 (smaller than SpaceSize only when Budget forced sampling).
	SpaceSize int
	Screened  int
	Sampled   bool
	Shape     string
	Eta, Keep int
	Rungs     []RungReport
	// Frontier is the Pareto front (energy vs delay) of the final
	// full-fidelity rung, sorted by ascending energy.
	Frontier []Point
	// Winner is the frontier point minimizing the scalar objective.
	Winner Point
	// PlannedNs is the ladder's simulated-time plan — an upper bound on
	// what a cold cache executes, since points whose effective knobs
	// coincide share one simulation. SimulatedNs is what this run actually
	// executed (0 when fully warm). ExhaustiveNs is the cost of the
	// full-fidelity exhaustive sweep the ladder replaces: SpaceSize x
	// Base.Duration.
	PlannedNs    int64
	SimulatedNs  int64
	ExhaustiveNs int64
}

// ladder plans the successive-halving rungs for n0 starting candidates:
// R screening rungs shrinking the field by eta each time while durations
// grow by eta toward D, then a from-scratch final rung of keep candidates
// at full fidelity. Screening rungs fork from a shared prefix when the
// space allows it, with the fork point sliding from 25% of the rung
// duration at rung 0 (broad screening wants most of the run after the
// fork, so every candidate's knobs get maximum influence on its measured
// tail) to 75% at the last screening rung (refinement among near-identical
// survivors amortizes a long shared prefix and isolates the knob's
// late-run effect).
func ladder(n0, keep, eta int, D, minDur event.Time, forkable bool) []Rung {
	if n0 <= keep {
		return []Rung{{Candidates: n0, Duration: D, ForkAt: 0}}
	}
	screens := int(math.Ceil(math.Log(float64(n0)/float64(keep)) / math.Log(float64(eta))))
	rungs := make([]Rung, 0, screens+1)
	for r := 0; r < screens; r++ {
		n := int(math.Ceil(float64(n0) / math.Pow(float64(eta), float64(r))))
		d := event.Time(float64(D) / math.Pow(float64(eta), float64(screens-r)))
		if d < minDur {
			d = minDur
		}
		if d > D {
			d = D
		}
		var at event.Time
		if forkable {
			frac := 0.25
			if screens > 1 {
				frac += 0.5 * float64(r) / float64(screens-1)
			}
			at = event.Time(float64(d) * frac)
			if at <= 0 || at >= d {
				at = 0
			}
		}
		rungs = append(rungs, Rung{Candidates: n, Duration: d, ForkAt: at})
	}
	return append(rungs, Rung{Candidates: keep, Duration: D, ForkAt: 0})
}

// plannedNs is the simulated time a cold cache spends executing the
// ladder: per rung, one shared prefix (if forked) plus each candidate's
// continuation (or full run).
func plannedNs(rungs []Rung) int64 {
	var total int64
	for _, rg := range rungs {
		per := int64(rg.Duration)
		if rg.ForkAt > 0 {
			per = int64(rg.Duration - rg.ForkAt)
			total += int64(rg.ForkAt)
		}
		total += int64(rg.Candidates) * per
	}
	return total
}

// measure extracts the two Pareto objectives from a result.
func measure(r core.Result) (energyMJ, delayS float64) {
	energyMJ = r.EnergyMJ
	if p := r.Performance(); p > 0 {
		delayS = 1 / p
	} else {
		delayS = math.Inf(1)
	}
	return
}

func (o Objective) score(energyMJ, delayS float64) float64 {
	switch o {
	case Runtime:
		return delayS
	case EDP:
		return energyMJ * delayS
	default:
		return energyMJ
	}
}

// paretoFront returns the non-dominated subset of pts: no other point is
// at least as good on both objectives and strictly better on one.
// Duplicate (energy, delay) pairs all survive. Output is sorted by
// ascending energy, ties by index, for deterministic reports.
func paretoFront(pts []Point) []Point {
	var front []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.EnergyMJ <= p.EnergyMJ && q.DelayS <= p.DelayS &&
				(q.EnergyMJ < p.EnergyMJ || q.DelayS < p.DelayS) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].EnergyMJ != front[j].EnergyMJ {
			return front[i].EnergyMJ < front[j].EnergyMJ
		}
		return front[i].Index < front[j].Index
	})
	return front
}

// survivors picks the candidates promoted out of a screening rung: the
// best `want` by scalar objective, plus up to `want` more from the rung's
// Pareto front — a point that is the cheapest or the fastest seen so far
// is not pruned by a middling scalar rank. The front bonus is capped
// because low-fidelity ties can put most of a large rung on the front,
// and an uncapped union would promote it wholesale and erase the ladder's
// savings; capped promotion keeps every rung within 2x its plan. Returned
// indices are sorted ascending so the next rung's job order is
// deterministic.
func survivors(pts []Point, want int) []int {
	// byScore orders positions in pts, not copies of the points (each
	// carries its whole Result); (Score, Index) is a total order.
	byScore := make([]int, len(pts))
	for i := range byScore {
		byScore[i] = i
	}
	sort.Slice(byScore, func(i, j int) bool {
		p, q := &pts[byScore[i]], &pts[byScore[j]]
		if p.Score != q.Score {
			return p.Score < q.Score
		}
		return p.Index < q.Index
	})
	if want > len(byScore) {
		want = len(byScore)
	}
	keep := make(map[int]bool, 2*want)
	for _, i := range byScore[:want] {
		keep[pts[i].Index] = true
	}
	onFront := make(map[int]bool)
	for _, p := range paretoFront(pts) {
		onFront[p.Index] = true
	}
	// Front members join in score order until the bonus budget is spent —
	// deterministic, and biased toward frontier points that are also good
	// on the scalar objective.
	bonus := want
	for _, i := range byScore[want:] {
		if bonus == 0 {
			break
		}
		if idx := pts[i].Index; onFront[idx] && !keep[idx] {
			keep[idx] = true
			bonus--
		}
	}
	out := make([]int, 0, len(keep))
	for idx := range keep {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// fitBudget returns the largest rung-0 candidate count n0 <= size whose
// planned ladder fits the budget (binary search; ladder cost grows with
// n0). Returns an error when even the minimum ladder — the final rung
// alone — exceeds the budget.
func fitBudget(size, keep, eta int, D, minDur event.Time, forkable bool, budget event.Time) (int, error) {
	cost := func(n0 int) int64 { return plannedNs(ladder(n0, keep, eta, D, minDur, forkable)) }
	if cost(size) <= int64(budget) {
		return size, nil
	}
	lo, hi := keep, size // cost(lo) minimal; invariant: cost(hi) > budget
	if cost(lo) > int64(budget) {
		return 0, fmt.Errorf("explore: budget %v cannot cover even the final full-fidelity rung (%d x %v = %v); raise -budget or lower -keep",
			budget, keep, D, event.Time(cost(lo)))
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cost(mid) <= int64(budget) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Run explores the space: plan the ladder, execute each rung through the
// lab runner, promote survivors, and return the final rung's Pareto
// frontier. Deterministic for fixed (space, options): worker count, cache
// temperature, and fleet availability never change the outcome, only
// where and whether simulations execute.
func Run(space Space, opts Options) (*Report, error) {
	return run(space, opts, false)
}

// Exhaustive evaluates every point of the space at full fidelity from
// scratch and returns the same Report shape (one rung, no pruning before
// the frontier). Its jobs fingerprint identically to an exploration's
// final rung, so verifying an exploration against Exhaustive on a warm
// cache re-simulates only the points the ladder pruned.
func Exhaustive(space Space, opts Options) (*Report, error) {
	return run(space, opts, true)
}

func run(space Space, opts Options, exhaustive bool) (*Report, error) {
	r := opts.Runner
	if r == nil {
		return nil, fmt.Errorf("explore: Options.Runner is required")
	}
	space.Base = space.Base.Normalized()
	forkable, err := space.check()
	if err != nil {
		return nil, err
	}
	D := space.Base.Duration
	size := space.Size()
	eta, keep := opts.eta(), opts.keep()
	minDur := opts.MinDuration
	if minDur <= 0 {
		minDur = D / 16
	}
	if minDur > D {
		minDur = D
	}
	// A checking runner audits every job from scratch; fork acceleration is
	// mutually exclusive with auditing, so the ladder degrades to short
	// from-scratch screening runs (still a large saving over exhaustive).
	forkable = forkable && !r.Check

	var rungs []Rung
	n0 := size
	if exhaustive {
		rungs = []Rung{{Candidates: size, Duration: D, ForkAt: 0}}
	} else {
		if opts.Budget > 0 {
			var err error
			if n0, err = fitBudget(size, keep, eta, D, minDur, forkable, opts.Budget); err != nil {
				return nil, err
			}
		}
		rungs = ladder(n0, keep, eta, D, minDur, forkable)
	}

	rep := &Report{
		App:          space.Base.App.Name,
		Objective:    opts.Objective,
		SpaceSize:    size,
		Screened:     n0,
		Sampled:      n0 < size,
		Shape:        space.Shape(),
		Eta:          eta,
		Keep:         keep,
		PlannedNs:    plannedNs(rungs),
		ExhaustiveNs: int64(size) * int64(D),
	}

	// Candidate indices entering rung 0: the whole space, or a seeded
	// deterministic sample of it when the budget forced downsampling.
	cands := make([]int, size)
	for i := range cands {
		cands[i] = i
	}
	if n0 < size {
		rng := rand.New(rand.NewSource(opts.Seed))
		perm := rng.Perm(size)
		cands = perm[:n0]
		sort.Ints(cands)
	}

	if opts.Log != nil {
		opts.Log.Info("explore start", "app", rep.App, "space", size,
			"screened", n0, "rungs", len(rungs), "objective", opts.Objective.String(),
			"forkable", forkable)
	}

	var finalPts []Point
	for ri, rg := range rungs {
		final := ri == len(rungs)-1
		var spec *lab.ForkSpec
		if rg.ForkAt > 0 {
			base := space.Base
			base.Duration = rg.Duration
			spec = &lab.ForkSpec{Base: base, At: rg.ForkAt}
		}
		jobs := make([]lab.Job, len(cands))
		for j, idx := range cands {
			cfg, err := space.Config(idx)
			if err != nil {
				return nil, err
			}
			cfg.Duration = rg.Duration
			jobs[j] = lab.Job{Config: cfg, Fork: spec}
		}

		before := r.Stats()
		results, err := runRung(r, jobs, final && opts.Check)
		if err != nil {
			return nil, fmt.Errorf("explore: rung %d: %w", ri, err)
		}
		after := r.Stats()

		pts := make([]Point, len(cands))
		for j, res := range results {
			e, d := measure(res)
			pts[j] = Point{
				Index:    cands[j],
				Desc:     space.Desc(cands[j]),
				EnergyMJ: e,
				DelayS:   d,
				Score:    opts.Objective.score(e, d),
				Result:   res,
			}
		}

		rr := RungReport{
			Candidates:  len(cands),
			Duration:    rg.Duration,
			ForkAt:      rg.ForkAt,
			SimulatedNs: rungSimNs(before, after, rg),
		}
		if final {
			finalPts = pts
			rep.Frontier = paretoFront(pts)
			rr.Promoted = len(rep.Frontier)
		} else {
			cands = survivors(pts, rungs[ri+1].Candidates)
			rr.Promoted = len(cands)
		}
		rr.Pruned = rr.Candidates - rr.Promoted
		rep.Rungs = append(rep.Rungs, rr)
		if opts.Log != nil {
			opts.Log.Info("rung complete", "rung", ri, "candidates", rr.Candidates,
				"duration", rg.Duration.String(), "fork_at", rg.ForkAt.String(),
				"promoted", rr.Promoted, "pruned", rr.Pruned,
				"simulated_ns", rr.SimulatedNs)
		}
	}

	for _, rr := range rep.Rungs {
		rep.SimulatedNs += rr.SimulatedNs
	}

	// Winner: the frontier point minimizing the scalar objective (the
	// frontier always contains it, since it is non-dominated).
	if len(rep.Frontier) == 0 {
		// Every final point dominated is impossible (the front of a
		// non-empty set is non-empty); guard anyway.
		if len(finalPts) == 0 {
			return nil, fmt.Errorf("explore: no final candidates")
		}
		rep.Frontier = finalPts
	}
	rep.Winner = rep.Frontier[0]
	for _, p := range rep.Frontier[1:] {
		if p.Score < rep.Winner.Score ||
			(p.Score == rep.Winner.Score && p.Index < rep.Winner.Index) {
			rep.Winner = p
		}
	}
	return rep, nil
}

// runRung executes one rung's jobs, flipping the runner's auditor on for
// the duration when audit is requested (the final full-fidelity rung under
// Options.Check). The flip is restored even on error.
func runRung(r *lab.Runner, jobs []lab.Job, audit bool) ([]core.Result, error) {
	if audit && !r.Check {
		r.Check = true
		defer func() { r.Check = false }()
	}
	return r.RunAll(jobs)
}

// rungSimNs converts the runner's stats delta across one rung into
// simulated nanoseconds: from-scratch simulations (local or remote) cost
// the rung duration, fork continuations cost duration minus the fork
// point, and each prefix actually built costs the fork point once.
func rungSimNs(before, after lab.Stats, rg Rung) int64 {
	simulated := after.Simulated - before.Simulated
	remote := after.Remote - before.Remote
	forks := after.Forks - before.Forks
	prefixes := after.PrefixMisses - before.PrefixMisses
	scratch := simulated - forks + remote
	return scratch*int64(rg.Duration) +
		forks*int64(rg.Duration-rg.ForkAt) +
		prefixes*int64(rg.ForkAt)
}

// SameFrontier reports whether two reports found the same frontier (as
// point index sets, in order) and the same winner — the property the
// explore-smoke gate checks against an exhaustive sweep.
func SameFrontier(a, b *Report) bool {
	if len(a.Frontier) != len(b.Frontier) || a.Winner.Index != b.Winner.Index {
		return false
	}
	for i := range a.Frontier {
		if a.Frontier[i].Index != b.Frontier[i].Index {
			return false
		}
	}
	return true
}
