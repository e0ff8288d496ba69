package biglittle

import (
	"biglittle/internal/core"
	"biglittle/internal/snapshot"
)

// Whole-simulation snapshot/fork (DESIGN.md §9): capture a running
// simulation's complete state, serialize it, and resume it any number of
// times — a fork continued to time T is byte-identical to a from-scratch
// run to T. Sweeps that vary only post-fork knobs run one warmed prefix
// and fork N cheap continuations (see Lab.ForkSpec and blsweep -fork-at).

// Snapshot is one captured whole-simulation state.
type Snapshot = snapshot.State

// Sim is a simulation with explicit clock control: RunTo advances it,
// Snapshot captures it, Finish collects the Result.
type Sim = core.Sim

// NewSim assembles a snapshot-capable simulation for cfg.
func NewSim(cfg Config) (*Sim, error) { return core.NewSim(cfg) }

// Resume reconstructs a running simulation from a captured snapshot. cfg
// must match the snapshot's identity (app, seed, topology); policy knobs
// may differ and take effect at the fork point.
func Resume(cfg Config, st *Snapshot) (*Sim, error) { return core.Resume(cfg, st) }

// EncodeSnapshot serializes a snapshot into its versioned, checksummed
// wire form.
func EncodeSnapshot(st *Snapshot) ([]byte, error) { return snapshot.Encode(st) }

// DecodeSnapshot parses a blob written by EncodeSnapshot, rejecting
// corrupt, truncated, or version-skewed data.
func DecodeSnapshot(blob []byte) (*Snapshot, error) { return snapshot.Decode(blob) }
