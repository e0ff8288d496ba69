package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config { return Config{Name: "t", SizeB: 1024, Ways: 2, LineB: 64} } // 8 sets

func TestValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Name: "a", SizeB: 1024, Ways: 2, LineB: 64}, true},
		{Config{Name: "b", SizeB: 0, Ways: 2, LineB: 64}, false},
		{Config{Name: "c", SizeB: 1000, Ways: 2, LineB: 64}, false},
		{Config{Name: "d", SizeB: 1024, Ways: 2, LineB: 48}, false},
		{Config{Name: "e", SizeB: 32 * 1024, Ways: 2, LineB: 64}, true},
		{Config{Name: "f", SizeB: 2 * 1024 * 1024, Ways: 16, LineB: 64}, true},
		{Config{Name: "g", SizeB: 512 * 1024, Ways: 8, LineB: 64}, true},
		{Config{Name: "h", SizeB: 3 * 64 * 2, Ways: 2, LineB: 64}, false}, // 3 sets
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1000 + 63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1000 + 64) {
		t.Fatal("next-line access hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 accesses 2 misses", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 8 sets, 2 ways: addresses with same set bits conflict
	setStride := uint64(8 * 64)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(d) {
		t.Fatal("filled line missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestWorkingSetFits(t *testing.T) {
	c := New(Config{Name: "l2", SizeB: 64 * 1024, Ways: 8, LineB: 64})
	// Stream a working set half the cache size twice: second pass all hits.
	ws := uint64(32 * 1024)
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			c.Access(a)
		}
	}
	st := c.Stats()
	wantMisses := ws / 64
	if st.Misses != wantMisses {
		t.Fatalf("misses = %d, want %d (compulsory only)", st.Misses, wantMisses)
	}
}

func TestWorkingSetExceeds(t *testing.T) {
	c := New(Config{Name: "l2", SizeB: 8 * 1024, Ways: 2, LineB: 64})
	// Working set 4x cache size streamed cyclically: with LRU every access
	// misses after warmup (classic LRU streaming pathology).
	ws := uint64(32 * 1024)
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			c.Access(a)
		}
	}
	st := c.Stats()
	if st.MissRate() < 0.99 {
		t.Fatalf("miss rate %.3f, want ~1.0 for cyclic over-capacity stream", st.MissRate())
	}
}

// Reshaping a cache to its own geometry resets it.
func TestReset(t *testing.T) {
	c := New(small())
	c.Access(0x40)
	c.Reshape(c.Config())
	if c.Contains(0x40) {
		t.Fatal("line survived reset")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := &Hierarchy{
		L1D: New(Config{Name: "l1", SizeB: 1024, Ways: 2, LineB: 64}),
		L2:  New(Config{Name: "l2", SizeB: 8 * 1024, Ways: 4, LineB: 64}),
	}
	if lvl := h.Access(0x100); lvl != Memory {
		t.Fatalf("cold access = %v, want Memory", lvl)
	}
	if lvl := h.Access(0x100); lvl != L1 {
		t.Fatalf("hot access = %v, want L1", lvl)
	}
	// Thrash L1 only: working set bigger than L1, smaller than L2.
	for a := uint64(0); a < 4*1024; a += 64 {
		h.Access(a)
	}
	// Second pass: should be mostly L2 hits (L1 too small to hold it).
	l2HitsBefore := h.L2.Stats().Accesses - h.L2.Stats().Misses
	for a := uint64(0); a < 4*1024; a += 64 {
		if lvl := h.Access(a); lvl == Memory {
			t.Fatalf("addr %#x went to memory, want L2 hit", a)
		}
	}
	l2HitsAfter := h.L2.Stats().Accesses - h.L2.Stats().Misses
	if l2HitsAfter <= l2HitsBefore {
		t.Fatal("expected L2 hits on second pass")
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || Memory.String() != "Memory" {
		t.Fatal("Level.String mismatch")
	}
}

// Property: miss count never exceeds access count, and hits+misses add up.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(small())
		hits := uint64(0)
		for _, a := range addrs {
			if c.Access(uint64(a)) {
				hits++
			}
		}
		st := c.Stats()
		return st.Accesses == uint64(len(addrs)) && st.Misses+hits == st.Accesses && st.Misses <= st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any access the line is resident, and residency never
// exceeds capacity (ways per set).
func TestPropertyResidency(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(small())
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a bigger cache (same ways/line) never has more misses on the
// same trace — inclusion property of LRU.
func TestPropertyLRUInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		smallC := New(Config{Name: "s", SizeB: 4 * 1024, Ways: 4, LineB: 64})
		bigC := New(Config{Name: "b", SizeB: 16 * 1024, Ways: 16, LineB: 64}) // same sets, more ways
		n := 2000
		for i := 0; i < n; i++ {
			a := uint64(rng.Intn(64*1024)) &^ 63
			smallC.Access(a)
			bigC.Access(a)
		}
		if bigC.Stats().Misses > smallC.Stats().Misses {
			t.Fatalf("iter %d: bigger cache missed more (%d > %d)", iter,
				bigC.Stats().Misses, smallC.Stats().Misses)
		}
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "l2", SizeB: 512 * 1024, Ways: 8, LineB: 64})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(2 * 1024 * 1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}
