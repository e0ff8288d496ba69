// Package cache implements a set-associative cache simulator with true-LRU
// replacement and a two-level hierarchy, used by the microarchitecture model
// to reproduce the L2-size-driven performance gap between the Cortex-A15
// (2 MB L2) and Cortex-A7 (512 KB L2) clusters described in the paper.
//
// The simulator is trace-driven: it consumes byte addresses and reports
// hit/miss per level. Latencies are attached by the uarch model, not here.
//
// Way metadata is stored as flat per-set arrays (tags and last-use stamps in
// separate slices) rather than per-way structs: the hit-probe loop scans only
// the tag array, and the common repeated-line case is served by a one-probe
// MRU check before the full set scan. A last-use stamp of zero marks an
// invalid way, so validity needs no separate flag — the global access clock
// starts at one.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name  string
	SizeB int // total capacity in bytes
	Ways  int // associativity
	LineB int // line size in bytes
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeB / (c.Ways * c.LineB) }

// Validate reports whether the configuration is internally consistent:
// power-of-two line size and set count, and positive dimensions.
func (c Config) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("cache %q: non-positive dimension", c.Name)
	}
	if c.SizeB%(c.Ways*c.LineB) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line %d", c.Name, c.SizeB, c.Ways*c.LineB)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineB)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats accumulates access counts for one cache level.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single set-associative cache level with LRU replacement.
//
// Way w of set s lives at flat index s*Ways+w. tags holds the full block
// address; use holds the last-access clock stamp, with zero meaning the way
// is invalid. mru remembers the way touched most recently per set for the
// one-probe fast path.
type Cache struct {
	cfg       Config
	tags      []uint64
	use       []uint64
	mru       []int32
	ways      int
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
}

// New builds a cache from cfg; it panics on an invalid configuration since
// configurations are compile-time constants in this simulator.
func New(cfg Config) *Cache {
	c := new(Cache)
	c.Reshape(cfg)
	return c
}

// Reshape empties the cache and gives it cfg's geometry, reusing its arrays
// when they are large enough, so one Cache can simulate a sequence of
// geometries without allocating after the largest. A reshaped cache behaves
// exactly as New(cfg) does: same contents, clock, MRU ways and statistics.
// It panics on an invalid configuration, as New does.
func (c *Cache) Reshape(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < cfg.LineB {
		shift++
	}
	*c = Cache{
		cfg:       cfg,
		tags:      emptied(c.tags, nsets*cfg.Ways),
		use:       emptied(c.use, nsets*cfg.Ways),
		mru:       emptied(c.mru, nsets),
		ways:      cfg.Ways,
		setMask:   uint64(nsets - 1),
		lineShift: shift,
	}
}

// emptied returns s resized to n zeroed elements, reallocating only when s
// cannot hold n.
func emptied[T uint64 | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics while keeping cache contents — used to
// exclude warmup accesses from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access looks up addr, allocating the line on a miss (write-allocate for
// both loads and stores — the distinction does not matter for the CPI model).
// It returns true on hit. The fast path is a single probe of the set's MRU
// way, which serves the repeated-line accesses that dominate instruction
// fetch and hot-set data streams.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	blk := addr >> c.lineShift
	set := blk & c.setMask
	base := int(set) * c.ways
	if m := base + int(c.mru[set]); c.tags[m] == blk && c.use[m] != 0 {
		c.use[m] = c.clock
		return true
	}
	return c.accessSlow(blk, set, base)
}

// accessSlow is the full set probe plus miss handling behind the MRU fast
// path. Victim selection is bit-compatible with the historical per-way-struct
// implementation: a zero stamp (invalid way) always loses to any valid stamp,
// and among zeros the first one wins because later zeros are not strictly
// smaller; among valid ways stamps are unique (the clock is monotone), so the
// minimum is the true LRU way.
func (c *Cache) accessSlow(blk, set uint64, base int) bool {
	tags := c.tags[base : base+c.ways]
	use := c.use[base : base+c.ways : base+c.ways]
	for i, t := range tags {
		if t == blk && use[i] != 0 {
			use[i] = c.clock
			c.mru[set] = int32(i)
			return true
		}
	}
	c.stats.Misses++
	victim := 0
	oldest := ^uint64(0)
	for i, u := range use {
		if u < oldest {
			oldest = u
			victim = i
		}
	}
	if use[victim] != 0 {
		c.stats.Evictions++
	}
	tags[victim] = blk
	use[victim] = c.clock
	c.mru[set] = int32(victim)
	return false
}

// Contains reports whether addr is currently resident, without touching
// LRU state or statistics. Intended for tests.
func (c *Cache) Contains(addr uint64) bool {
	blk := addr >> c.lineShift
	base := int(blk&c.setMask) * c.ways
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == blk && c.use[base+i] != 0 {
			return true
		}
	}
	return false
}

// Level identifies where in the hierarchy an access was satisfied.
type Level int

const (
	L1 Level = iota
	L2
	Memory
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	default:
		return "Memory"
	}
}

// Hierarchy is a two-level data-cache hierarchy (L1D backed by a unified L2).
// Instruction caches are modeled separately by the uarch package using a
// standalone Cache, because instruction streams in the synthetic workloads
// have near-perfect locality.
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
}

// Access walks addr through the hierarchy and returns the level that
// satisfied it. An L1 miss always probes L2; an L2 miss goes to memory and
// fills both levels (inclusive fill). The L1-hit common case resolves in the
// single MRU probe inside (*Cache).Access and allocates nothing.
func (h *Hierarchy) Access(addr uint64) Level {
	if h.L1D.Access(addr) {
		return L1
	}
	if h.L2.Access(addr) {
		return L2
	}
	return Memory
}
