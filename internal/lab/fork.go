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

// prefixSlot is one warmed prefix of a batch: the snapshot of spec.Base run
// to spec.At, shared by every job of the batch whose spec names the same
// (Base, At), and dropped with the batch. The state is built or loaded at
// most once, under once, and handed out decoded: core.RunFrom treats a
// State as read-only (every Restore copies, and the replayer reads the log
// in place and records nothing past the fork), so concurrent continuations
// can share it. Decoding per fork would cost more than the continuation
// itself on short runs. err is a bad spec's error, set before the batch fans
// out, or the build's, set under once; it is read only inside or after
// once.Do, which orders the build's write before every read.
type prefixSlot struct {
	spec      *ForkSpec
	key       string
	once      sync.Once
	state     *snapshot.State
	simulated bool // the prefix was built by simulation, not loaded
	err       error
}

// prefixKey addresses one warmed prefix: the base config's content
// fingerprint joined with the fork time.
func prefixKey(baseFp string, at event.Time) string {
	sum := sha256.Sum256([]byte(baseFp + "@" + strconv.FormatInt(int64(at), 10)))
	return hex.EncodeToString(sum[:])
}

// newPrefixSlot keys spec's prefix, or records why spec cannot have one.
func newPrefixSlot(spec *ForkSpec) *prefixSlot {
	p := &prefixSlot{spec: spec}
	if spec.At <= 0 {
		p.err = fmt.Errorf("lab: fork for %q: fork time must be positive, got %v", spec.Base.App.Name, spec.At)
		return p
	}
	baseFp, ok := Fingerprint(Job{Config: spec.Base})
	if !ok {
		p.err = fmt.Errorf("lab: fork base config for %q is not fingerprintable (it carries observers, hooks, a digest recorder, session phases, or an unnamed platform); fork acceleration needs a shareable prefix", spec.Base.App.Name)
		return p
	}
	p.key = prefixKey(baseFp, spec.At)
	return p
}

// prefixSlots gives each fork job of a batch its prefix slot, or returns
// nil when no job forks. A spec is keyed once however many jobs share its
// pointer — the natural way to build a fork sweep, and one config marshal
// per spec — and specs with equal keys share one slot.
func prefixSlots(jobs []Job) []*prefixSlot {
	var slots []*prefixSlot
	var bySpec map[*ForkSpec]*prefixSlot
	var byKey map[string]*prefixSlot
	for i := range jobs {
		spec := jobs[i].Fork
		if spec == nil {
			continue
		}
		if slots == nil {
			slots = make([]*prefixSlot, len(jobs))
			bySpec, byKey = make(map[*ForkSpec]*prefixSlot), make(map[string]*prefixSlot)
		}
		p := bySpec[spec]
		if p == nil {
			p = newPrefixSlot(spec)
			if p.err == nil {
				if shared := byKey[p.key]; shared != nil {
					p = shared
				} else {
					byKey[p.key] = p
				}
			}
			bySpec[spec] = p
		}
		slots[i] = p
	}
	return slots
}

// prefixState returns p's decoded snapshot, building it on the first call
// and caching its encoded form in the Cache's prefix tier for later
// processes. Every call that returns a state is counted: the one that
// simulated the prefix as a PrefixMiss, every other as a PrefixHit.
func (r *Runner) prefixState(p *prefixSlot) (*snapshot.State, error) {
	built := false
	p.once.Do(func() {
		if p.err == nil {
			built = true
			p.state, p.simulated, p.err = r.loadOrBuildPrefix(p.spec, p.key)
		}
	})
	if p.err != nil {
		return nil, p.err
	}
	app := p.spec.Base.App.Name
	if built && p.simulated {
		r.count(func(s *Stats) { s.PrefixMisses++ })
		r.logJob("prefix simulated", app, logAt(p.spec.At), slog.String("key", p.key[:12]))
	} else {
		r.count(func(s *Stats) { s.PrefixHits++ })
		r.logJob("prefix reused", app, logAt(p.spec.At), slog.String("key", p.key[:12]))
	}
	return p.state, nil
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
	captured := core.Identity{App: st.App, Seed: st.Seed, Cores: st.Cores, Platform: st.Platform}
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

// forkRun is the attempt body of a fork-accelerated job: run the job's
// config out from the shared read-only prefix with core.RunFrom, which,
// like every resumed run, records no workload log.
func forkRun(st *snapshot.State) func(core.Config) (core.Result, error) {
	return func(cfg core.Config) (core.Result, error) {
		res, err := core.RunFrom(cfg, st)
		if err != nil {
			return core.Result{}, fmt.Errorf("lab: job %q: resume fork prefix: %w", cfg.App.Name, err)
		}
		return res, nil
	}
}
