package biglittle

import "biglittle/internal/explore"

// ExploreSpace declares a configuration search space: a base Config plus
// the cross product of its dimensions, each an override key from the
// ApplyOverrides vocabulary (governor tunables, HMP thresholds, scheduler,
// cores, ...) with candidate values. Point indices enumerate in
// nested-loop order with the first dimension varying fastest.
type ExploreSpace = explore.Space

// ExploreDim is one axis of an ExploreSpace.
type ExploreDim = explore.Dim

// ExploreOptions tunes one exploration: the LabRunner executing rungs, the
// scalar objective, a simulated-time budget, the halving factor, the
// finalist count, and the screening-fidelity floor.
type ExploreOptions = explore.Options

// ExploreReport is the outcome of one exploration: the Pareto frontier of
// (energy, delay), the winning configuration, per-rung screening stats,
// and the planned versus exhaustive simulation costs.
type ExploreReport = explore.Report

// ExploreObjective is the scalar the search minimizes when ranking
// candidates within a rung.
type ExploreObjective = explore.Objective

// The explore objectives: total energy, energy-delay product (the paper's
// preferred single-number efficiency metric), and delay alone.
const (
	ExploreEnergy  = explore.Energy
	ExploreEDP     = explore.EDP
	ExploreRuntime = explore.Runtime
)

// Explore searches the space for the Pareto front of (energy, delay) by
// successive halving: short snapshot-forked runs screen the whole space
// and survivors graduate to progressively longer runs, every rung memoized
// through the lab cache (see DESIGN.md §10). Deterministic for fixed
// (space, options).
func Explore(space ExploreSpace, opts ExploreOptions) (*ExploreReport, error) {
	return explore.Run(space, opts)
}

// ExploreExhaustive evaluates every point at full fidelity — the ground
// truth an exploration's frontier can be verified against. On a cache
// warmed by Explore, only the pruned points re-simulate.
func ExploreExhaustive(space ExploreSpace, opts ExploreOptions) (*ExploreReport, error) {
	return explore.Exhaustive(space, opts)
}

// SameExploreFrontier reports whether two reports found the same frontier
// and winner (by point index).
func SameExploreFrontier(a, b *ExploreReport) bool { return explore.SameFrontier(a, b) }

// ParseExploreObjective parses "energy", "edp", or "runtime".
func ParseExploreObjective(s string) (ExploreObjective, error) { return explore.ParseObjective(s) }

// ParseExploreDim parses one "key=v1,v2,v3" dimension spec.
func ParseExploreDim(spec string) (ExploreDim, error) { return explore.ParseDim(spec) }

// ParseExploreSpec parses a space-spec file: one dimension per line, '#'
// comments ignored.
func ParseExploreSpec(text string) ([]ExploreDim, error) { return explore.ParseSpec(text) }
