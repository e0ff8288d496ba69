package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strconv"
	"sync"

	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/snapshot"
)

// prefixEntry is one singleflight slot of the in-process prefix tier. The
// state is the snapshot decoded from its wire form exactly once:
// core.RunFrom treats a State as read-only (every Restore copies, and the
// replayer reads the log in place and records nothing past the fork), so
// concurrent continuations can share it. Decoding per fork would cost more
// than the continuation itself on short runs.
type prefixEntry struct {
	once      sync.Once
	state     *snapshot.State
	simulated bool  // the prefix was built by simulation, not loaded
	size      int64 // estimated decoded footprint, for the byte budget
	tracked   bool  // accounted in prefixLRU/prefixBytes (under prefixMu)
	err       error
}

// prefixKey addresses one warmed prefix: the base config's content
// fingerprint joined with the fork time.
func prefixKey(baseFp string, at event.Time) string {
	sum := sha256.Sum256([]byte(baseFp + "@" + strconv.FormatInt(int64(at), 10)))
	return hex.EncodeToString(sum[:])
}

// prefixState returns the decoded snapshot of spec.Base run to spec.At,
// building it at most once per (Base, At) across all workers and caching its
// encoded form in the Cache's prefix tier for later processes. Every path
// out of here is counted: a simulated prefix is a PrefixMiss, a reused one a
// PrefixHit. The key (a base-config fingerprint, one config marshal) is
// memoized per *ForkSpec, so jobs sharing one spec pointer — the natural way
// to build a fork sweep — fingerprint the base once, not once per job.
func (r *Runner) prefixState(spec *ForkSpec) (*snapshot.State, error) {
	if spec.At <= 0 {
		return nil, fmt.Errorf("lab: fork for %q: fork time must be positive, got %v", spec.Base.App.Name, spec.At)
	}

	r.prefixMu.Lock()
	key, ok := r.prefixKeys[spec]
	if !ok {
		baseFp, printable := Fingerprint(Job{Config: spec.Base})
		if !printable {
			r.prefixMu.Unlock()
			return nil, fmt.Errorf("lab: fork base config for %q is not fingerprintable (it carries observers, hooks, a digest recorder, session phases, or an unnamed platform); fork acceleration needs a shareable prefix", spec.Base.App.Name)
		}
		key = prefixKey(baseFp, spec.At)
		if r.prefixKeys == nil {
			r.prefixKeys = make(map[*ForkSpec]string)
		}
		r.prefixKeys[spec] = key
	}
	if r.prefixes == nil {
		r.prefixes = make(map[string]*prefixEntry)
	}
	e := r.prefixes[key]
	if e == nil {
		e = &prefixEntry{}
		r.prefixes[key] = e
	}
	r.prefixMu.Unlock()

	built := false
	e.once.Do(func() {
		built = true
		e.state, e.simulated, e.err = r.loadOrBuildPrefix(spec, key)
		if e.err == nil {
			e.size = e.state.ApproxBytes()
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	if evicted := r.prefixTouch(key, e); evicted > 0 {
		n := int64(evicted)
		r.countAdd(func(s *Stats) { s.PrefixEvictions += n }, "lab_prefix_evictions", n)
		r.logJob("prefix evicted", spec.Base.App.Name, slog.Int("evicted", evicted), slog.Int64("budget", r.budget()))
	}
	switch {
	case built && e.simulated:
		r.count(func(s *Stats) { s.PrefixMisses++ }, "lab_prefix_misses")
		r.logJob("prefix simulated", spec.Base.App.Name, logAt(spec.At), slog.String("key", key[:12]))
	default:
		r.count(func(s *Stats) { s.PrefixHits++ }, "lab_prefix_hits")
		r.logJob("prefix reused", spec.Base.App.Name, logAt(spec.At), slog.String("key", key[:12]))
	}
	return e.state, nil
}

// loadOrBuildPrefix tries the cache's prefix tier, then simulates the base
// config to the fork time and snapshots it. A stored blob that is not the
// prefix spec would build is removed and rebuilt like a corrupt one. The
// captured state is handed out directly — Snapshot builds fresh DTOs, and
// the codec's fidelity is pinned by the snapshot round-trip and golden-fork
// tests — so encoding here is purely for the disk tier and is skipped when
// there is none (it would otherwise cost as much as two continuations).
// Simulation panics are recovered into errors so a broken base config fails
// the jobs that share it rather than the whole sweep.
func (r *Runner) loadOrBuildPrefix(spec *ForkSpec, key string) (st *snapshot.State, simulated bool, err error) {
	if _, st, ok := r.Cache.loadPrefix(key); ok {
		err := prefixMismatch(st, spec)
		if err == nil {
			return st, false, nil
		}
		r.logJob("prefix mismatch", spec.Base.App.Name, slog.String("key", key[:12]), slog.Any("err", err))
		r.Cache.removePrefix(key)
	}
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, fmt.Errorf("lab: fork prefix for %q panicked: %v", spec.Base.App.Name, p)
		}
	}()
	sim, err := core.NewSim(spec.Base)
	if err != nil {
		return nil, false, fmt.Errorf("lab: fork prefix for %q: %w", spec.Base.App.Name, err)
	}
	sim.RunTo(spec.At)
	captured, err := sim.Snapshot()
	if err != nil {
		return nil, false, fmt.Errorf("lab: fork prefix for %q: %w", spec.Base.App.Name, err)
	}
	if r.Cache != nil {
		blob, err := snapshot.Encode(captured)
		if err != nil {
			return nil, false, fmt.Errorf("lab: fork prefix for %q: %w", spec.Base.App.Name, err)
		}
		// Best effort: a prefix that cannot be persisted still serves this run.
		r.Cache.PutPrefix(key, blob)
	}
	return captured, true, nil
}

// prefixMismatch reports how a loaded prefix differs from the one spec
// would build, comparing what BLSNAP records of the capturing run: its
// identity, policy kinds, horizon, thermal presence and capture time, which
// is spec.At capped at the horizon as RunTo caps it. The base's tunables are
// not recorded, so a blob captured under other tunables passes.
func prefixMismatch(st *snapshot.State, spec *ForkSpec) error {
	base := spec.Base.Normalized()
	captured := core.Identity{App: st.App, Seed: st.Seed, Cores: st.Cores, CustomPlatform: st.CustomPlatform}
	switch at := min(spec.At, base.Duration); {
	case captured != base.Identity():
		return fmt.Errorf("captured identity %+v, base has %+v", captured, base.Identity())
	case st.SchedKind != base.Scheduler.String() || st.GovKind != base.Governor.String():
		return fmt.Errorf("captured under %s/%s, base runs %s/%s", st.SchedKind, st.GovKind, base.Scheduler, base.Governor)
	case st.Duration != base.Duration:
		return fmt.Errorf("captured a %v run, base runs %v", st.Duration, base.Duration)
	case (st.Thermal != nil) != (base.Thermal != nil):
		return fmt.Errorf("captured thermal model present %v, base %v", st.Thermal != nil, base.Thermal != nil)
	case st.Time != at:
		return fmt.Errorf("captured at %v, fork is at %v", st.Time, at)
	}
	return nil
}

// budget resolves the prefix tier's byte budget: DefaultPrefixBudget unless
// a test overrides it, 0 meaning unlimited.
func (r *Runner) budget() int64 {
	switch {
	case r.prefixBudget == 0:
		return DefaultPrefixBudget
	case r.prefixBudget < 0:
		return 0
	default:
		return r.prefixBudget
	}
}

// prefixTouch marks key as the most recently handed-out prefix and evicts
// least-recently-used entries until the tier fits the byte budget again,
// returning how many were dropped. The entry just handed out is never a
// victim — a single prefix larger than the whole budget still serves the
// sweep that warmed it — and an entry already evicted by a concurrent
// handout is left untracked rather than resurrected, so the byte tally
// only ever counts states reachable from the map.
func (r *Runner) prefixTouch(key string, e *prefixEntry) (evicted int) {
	r.prefixMu.Lock()
	defer r.prefixMu.Unlock()
	if r.prefixes[key] != e {
		return 0
	}
	if !e.tracked {
		e.tracked = true
		r.prefixBytes += e.size
		r.prefixLRU = append(r.prefixLRU, key)
	} else if n := len(r.prefixLRU); n > 0 && r.prefixLRU[n-1] != key {
		for i, k := range r.prefixLRU {
			if k == key {
				copy(r.prefixLRU[i:], r.prefixLRU[i+1:])
				r.prefixLRU[n-1] = key
				break
			}
		}
	}
	budget := r.budget()
	if budget <= 0 {
		return 0
	}
	for r.prefixBytes > budget && len(r.prefixLRU) > 1 {
		victim := r.prefixLRU[0]
		if victim == key {
			break
		}
		r.prefixLRU = r.prefixLRU[1:]
		if ve := r.prefixes[victim]; ve != nil {
			r.prefixBytes -= ve.size
			delete(r.prefixes, victim)
		}
		evicted++
	}
	return evicted
}

// forkRun is the attempt body of a fork-accelerated job: run the job's
// config out from the shared read-only prefix with core.RunFrom. Nothing
// snapshots a continuation, so it records no workload log.
func forkRun(st *snapshot.State) func(core.Config) (core.Result, error) {
	return func(cfg core.Config) (core.Result, error) {
		res, err := core.RunFrom(cfg, st)
		if err != nil {
			return core.Result{}, fmt.Errorf("lab: job %q: resume fork prefix: %w", cfg.App.Name, err)
		}
		return res, nil
	}
}
