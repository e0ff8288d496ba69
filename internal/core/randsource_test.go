package core

import (
	"runtime"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/randpool"
)

// TestFinishGivesBackRandomSource pins that every Sim borrows its random
// source for its lifetime: whichever constructor built it, Finish hands the
// source back to randpool, so the next Get returns it, and RunTo after
// Finish panics rather than draw from a source another run may now hold.
func TestFinishGivesBackRandomSource(t *testing.T) {
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(app)
	st := decodedSnapshot(t, cfg, cfg.Duration/2)
	for name, build := range map[string]func() (*Sim, error){
		"NewSim":   func() (*Sim, error) { return NewSim(cfg) },
		"Resume":   func() (*Sim, error) { return Resume(cfg, st) },
		"Assemble": func() (*Sim, error) { return Assemble(cfg), nil },
	} {
		// Drain the free list, so the Sim's source is the only one idle
		// after Finish.
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			randpool.Get(0)
		}
		sim, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim.RunTo(cfg.Duration)
		sim.Finish()
		if got := randpool.Get(cfg.Seed); got != sim.rng {
			t.Errorf("%s: the next Get after Finish returned another source", name)
		}
		if !panics(func() { sim.RunTo(cfg.Duration) }) {
			t.Errorf("%s: RunTo after Finish did not panic", name)
		}
	}
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}
