// Package randpool keeps the random sources of finished simulations and
// branch traces for reuse. A math/rand source is about 5 KB, and seeding
// one resets all of it, the read position included, so a reused source
// draws exactly what a fresh one seeded alike would. A source goes back
// only once nothing will draw from it: a core.Sim borrows one at assembly
// and gives it back in Finish, after which the Sim refuses to run on, and
// bpred's Trace and MeasureStream give theirs back when they return.
package randpool

import (
	"math/rand"
	"runtime"
	"sync"
)

// idle is the free list. It keeps at most GOMAXPROCS sources, and is a
// plain list rather than a sync.Pool because a GC empties a pool.
var (
	idleMu sync.Mutex
	idle   []*rand.Rand
)

// Get returns a source seeded with seed, reusing an idle one if any.
func Get(seed int64) *rand.Rand {
	idleMu.Lock()
	n := len(idle)
	if n == 0 {
		idleMu.Unlock()
		return rand.New(rand.NewSource(seed))
	}
	rng := idle[n-1]
	idle[n-1] = nil
	idle = idle[:n-1]
	idleMu.Unlock()
	rng.Seed(seed)
	return rng
}

// Put hands back a source that nothing will draw from again.
func Put(rng *rand.Rand) {
	idleMu.Lock()
	defer idleMu.Unlock()
	if len(idle) < runtime.GOMAXPROCS(0) {
		idle = append(idle, rng)
	}
}
