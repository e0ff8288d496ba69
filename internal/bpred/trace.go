package bpred

import (
	"hash/fnv"
	"math/rand"

	"biglittle/internal/synth"
)

// Branch is one dynamic branch in a structured trace.
type Branch struct {
	Site  uint32
	Taken bool
}

// site behaviours composing a realistic branch population.
type siteKind int

const (
	loopSite       siteKind = iota // taken body-length times, then one exit
	biasedSite                     // strongly biased one way
	correlatedSite                 // repeats the previous branch's outcome
	randomSite                     // data-dependent coin flip
)

type site struct {
	kind   siteKind
	id     uint32
	period int     // loop body length
	state  int     // loop progress
	bias   float64 // P(taken) for biased/random sites
}

// Trace generates a structured branch trace whose aggregate taken rate
// matches the profile's TakenRate and whose difficulty scales with the
// profile's MispredictRate: predictable workloads are loop-dominated,
// unpredictable ones carry more data-dependent random branches.
func Trace(p synth.Profile, n int) []Branch {
	next := branches(p)
	out := make([]Branch, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// MeasureStream returns each predictor's misprediction rate over the
// profile's n-branch trace, in the order given. Each branch is fed to every
// predictor as it is generated, so memory does not grow with n, and each
// rate equals Measure over Trace(p, n) bit for bit.
func MeasureStream(p synth.Profile, n int, preds ...Predictor) []float64 {
	rates := make([]float64, len(preds))
	if n <= 0 {
		return rates
	}
	miss := make([]int, len(preds))
	next := branches(p)
	for i := 0; i < n; i++ {
		b := next()
		for j, pr := range preds {
			if pr.Predict(b.Site) != b.Taken {
				miss[j]++
			}
			pr.Update(b.Site, b.Taken)
		}
	}
	for j, m := range miss {
		rates[j] = float64(m) / float64(n)
	}
	return rates
}

// branches returns a generator of the profile's branch sequence: each call
// draws the next branch. Trace and MeasureStream read the same sequence.
func branches(p synth.Profile) func() Branch {
	h := fnv.New64a()
	h.Write([]byte(p.Name + "/branches"))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	// Every site class's difficulty scales with the profile's misprediction
	// rate, so a bimodal predictor over the trace lands near the rate the
	// profile reports (which is an A7-class measurement): loop periods
	// shrink, biases weaken, and the share of data-dependent random
	// branches grows for hard workloads.
	target := p.MispredictRate
	if target < 0.005 {
		target = 0.005
	}
	randShare := target * 0.8
	corrShare := 0.08
	loopShare := 0.5 * (1 - randShare - corrShare)
	biasShare := 1 - randShare - corrShare - loopShare

	// Enough distinct sites to pressure a small predictor's table (the
	// A7-class bimodal has 512 entries) without overwhelming a big one.
	const nSites = 1024
	sites := make([]site, nSites)
	for i := range sites {
		s := &sites[i]
		s.id = uint32(i * 2654435761)
		r := rng.Float64()
		switch {
		case r < loopShare:
			s.kind = loopSite
			// Period sized so exits cost ~target mispredicts per branch.
			base := int(1.5 / target)
			if base < 3 {
				base = 3
			}
			s.period = base/2 + rng.Intn(base)
		case r < loopShare+biasShare:
			s.kind = biasedSite
			s.bias = 1 - target*(0.5+rng.Float64())
			if s.bias < 0.7 {
				s.bias = 0.7
			}
			if rng.Float64() > p.TakenRate {
				s.bias = 1 - s.bias
			}
		case r < loopShare+biasShare+corrShare:
			s.kind = correlatedSite
		default:
			s.kind = randomSite
			s.bias = 0.35 + 0.3*rng.Float64()
		}
	}

	prevTaken := true
	return func() Branch {
		s := &sites[rng.Intn(nSites)]
		var taken bool
		switch s.kind {
		case loopSite:
			s.state++
			taken = s.state%s.period != 0
		case biasedSite:
			taken = rng.Float64() < s.bias
		case correlatedSite:
			taken = prevTaken
		default:
			taken = rng.Float64() < s.bias
		}
		prevTaken = taken
		return Branch{Site: s.id, Taken: taken}
	}
}
