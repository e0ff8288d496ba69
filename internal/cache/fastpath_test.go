package cache

import (
	"math/rand"
	"testing"
)

// The flat-array + MRU-probe implementation must be behaviourally identical
// to a straightforward per-way LRU model: same hit/miss verdict on every
// access and same final stats, for random address streams over several
// geometries — on a new cache, and on one cache reshaped through every
// geometry, each after a larger or a smaller one, whose arrays still hold
// the previous geometry's lines.
func TestMatchesReferenceLRU(t *testing.T) {
	cfgs := []Config{
		{Name: "dm", SizeB: 4 << 10, Ways: 1, LineB: 64},
		{Name: "a2", SizeB: 8 << 10, Ways: 2, LineB: 32},
		{Name: "a4", SizeB: 32 << 10, Ways: 4, LineB: 64},
		{Name: "a16", SizeB: 64 << 10, Ways: 16, LineB: 64},
	}
	check := func(c *Cache, cfg Config) {
		ref := newRefCache(cfg)
		rng := rand.New(rand.NewSource(7))
		// Mix of hot reuse, streaming, and random addresses.
		hot := make([]uint64, 32)
		for i := range hot {
			hot[i] = uint64(rng.Intn(1 << 14))
		}
		var streamPtr uint64
		for i := 0; i < 200_000; i++ {
			var addr uint64
			switch rng.Intn(4) {
			case 0, 1:
				addr = hot[rng.Intn(len(hot))]
			case 2:
				streamPtr += 8
				addr = 1<<20 + streamPtr
			default:
				addr = uint64(rng.Intn(1 << 18))
			}
			got, want := c.Access(addr), ref.access(addr)
			if got != want {
				t.Fatalf("%s: access %d addr %#x: got hit=%v, reference %v", cfg.Name, i, addr, got, want)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", cfg.Name, c.Stats(), ref.stats)
		}
	}
	for _, cfg := range cfgs {
		check(New(cfg), cfg)
	}
	var c Cache
	for _, i := range []int{1, 0, 3, 2, 1} { // a2, then smaller, larger, smaller, smaller
		c.Reshape(cfgs[i])
		check(&c, cfgs[i])
	}
}

// refCache is the original per-way-struct implementation, kept verbatim as
// the behavioural oracle.
type refCache struct {
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
}

type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Sets()
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineB {
		shift++
	}
	return &refCache{sets: sets, setMask: uint64(nsets - 1), lineShift: shift}
}

func (c *refCache) access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	blk := addr >> c.lineShift
	set := c.sets[blk&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == blk {
			set[i].lastUse = c.clock
			return true
		}
	}
	c.stats.Misses++
	victim := 0
	oldest := ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			oldest = 0
			break
		}
		if set[i].lastUse < oldest {
			oldest = set[i].lastUse
			victim = i
		}
	}
	if set[victim].valid {
		c.stats.Evictions++
	}
	set[victim] = refLine{tag: blk, valid: true, lastUse: c.clock}
	return false
}

// An L1 hit — the overwhelmingly common case in every SPEC run — must not
// allocate. This is half of the allocation budget the CI gate enforces (the
// other half is the event fire path).
func TestZeroAllocL1Hit(t *testing.T) {
	h := &Hierarchy{
		L1D: New(Config{Name: "l1", SizeB: 32 << 10, Ways: 4, LineB: 64}),
		L2:  New(Config{Name: "l2", SizeB: 512 << 10, Ways: 8, LineB: 64}),
	}
	h.Access(0x1000) // fill
	if avg := testing.AllocsPerRun(1000, func() {
		if h.Access(0x1000) != L1 {
			t.Fatal("expected L1 hit")
		}
	}); avg != 0 {
		t.Fatalf("L1-hit access allocates %.1f objects, want 0", avg)
	}
}

// Misses through the full hierarchy must not allocate either.
func TestZeroAllocMissPath(t *testing.T) {
	h := &Hierarchy{
		L1D: New(Config{Name: "l1", SizeB: 4 << 10, Ways: 2, LineB: 64}),
		L2:  New(Config{Name: "l2", SizeB: 16 << 10, Ways: 4, LineB: 64}),
	}
	addr := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		addr += 1 << 16 // always a fresh set-conflicting line
		h.Access(addr)
	}); avg != 0 {
		t.Fatalf("miss-path access allocates %.1f objects, want 0", avg)
	}
}
