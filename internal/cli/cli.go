// Package cli holds the flag plumbing shared by the commands: the
// -seed/-duration pair and the -workers/-cache-dir/-no-cache orchestration
// flags of the experiment commands (blreport, blsweep, blexplore), app-list
// resolution, the key=value override vocabulary (blsweep -param, bldiff
// -a/-b, blexplore -dim), and the app:duration phase lists of blserve and
// blsession.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"biglittle/internal/analysis"
	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/fleet"
	"biglittle/internal/lab"
	"biglittle/internal/platform"
	"biglittle/internal/session"
)

// Experiment bundles the flag values shared by the experiment commands.
type Experiment struct {
	Seed     int64
	Duration time.Duration
	Workers  int
	CacheDir string
	NoCache  bool
	Check    bool
	Verbose  bool
	Remote   string
}

// RegisterExperiment installs the shared experiment flags on fs and returns
// the struct their values land in (after fs.Parse).
func RegisterExperiment(fs *flag.FlagSet, defaultDuration time.Duration) *Experiment {
	e := &Experiment{}
	fs.Int64Var(&e.Seed, "seed", 1, "workload random seed")
	fs.DurationVar(&e.Duration, "duration", defaultDuration, "simulated duration per app run")
	fs.IntVar(&e.Workers, "workers", 0, "parallel simulations (0 = GOMAXPROCS, or 16 with -remote)")
	fs.StringVar(&e.CacheDir, "cache-dir", "", "result cache directory (default: the user cache dir, e.g. ~/.cache/biglittle)")
	fs.BoolVar(&e.NoCache, "no-cache", false, "disable the on-disk result cache")
	fs.BoolVar(&e.Check, "check", false, "audit every run with the invariant checker; cache hits are re-simulated and compared")
	fs.BoolVar(&e.Verbose, "v", false, "log sweep progress to stderr: per-job transitions, completed/total, jobs/sec, ETA")
	fs.StringVar(&e.Remote, "remote", "", "fleet coordinator base URL (a blserve instance); fingerprintable jobs execute on the fleet, the rest simulate locally")
	return e
}

// Logger returns the structured progress logger -v selects: a Debug-level
// text logger on stderr when verbose, nil (silent) otherwise. Stderr keeps
// report stdout byte-identical with or without -v.
func (e *Experiment) Logger() *slog.Logger {
	if !e.Verbose {
		return nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// Runner builds the experiment orchestrator the flags describe: the worker
// pool plus (unless -no-cache) the content-addressed result cache, with
// progress logging attached when -v is set. With -remote, a fleet client is
// installed as the remote executor: pool slots then mostly wait on the
// coordinator rather than burn a CPU, so the default pool widens to 16 to
// keep that many jobs in flight across the fleet.
func (e *Experiment) Runner() (*lab.Runner, error) {
	r := &lab.Runner{Workers: e.Workers, Check: e.Check, Log: e.Logger()}
	if !e.NoCache {
		c, err := lab.Open(e.CacheDir)
		if err != nil {
			return nil, err
		}
		r.Cache = c
	}
	if e.Remote != "" {
		r.Remote = &fleet.Client{Base: e.Remote, Log: e.Logger()}
		if r.Workers == 0 {
			r.Workers = 16
		}
	}
	return r, nil
}

// Options assembles the analysis options for the parsed flags and runner.
func (e *Experiment) Options(r *lab.Runner) analysis.Options {
	return analysis.Options{
		Duration: event.Time(e.Duration.Nanoseconds()),
		Seed:     e.Seed,
		Runner:   r,
	}
}

// ResolveApps returns the app named by an -app flag value, or the full
// twelve-app suite when the value is empty.
func ResolveApps(name string) ([]apps.App, error) {
	if name == "" {
		return apps.All(), nil
	}
	app, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	return []apps.App{app}, nil
}

// ParsePhases parses a comma-separated app:duration session list
// ("browser:20s,video_player:10s"). Every phase needs a known app and a
// positive duration, so an empty list is an error too.
func ParsePhases(arg string) ([]session.Phase, error) {
	var phases []session.Phase
	for _, part := range strings.Split(arg, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad phase %q (want app:duration)", part)
		}
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return nil, fmt.Errorf("phase %q: %v", part, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("phase %q: duration must be positive", part)
		}
		phases = append(phases, session.Phase{App: app, Duration: event.Time(d.Nanoseconds())})
	}
	return phases, nil
}

// PrintLabStats writes the runner's job and cache counters to w — the
// commands pass stderr, so report stdout stays byte-identical whatever the
// cache state. A fully warm run shows "0 simulated", and "0 computed" on
// its memo line when it read derived results.
func PrintLabStats(w io.Writer, r *lab.Runner, elapsed time.Duration) {
	s := r.Stats()
	cache := "off"
	if r.Cache != nil {
		cache = r.Cache.Dir()
	}
	fmt.Fprintf(w, "lab: %d jobs: %d cache hits, %d misses, %d simulated, %d remote, %d retried, %d failed in %s (cache %s)\n",
		s.Jobs, s.Hits, s.Misses, s.Simulated, s.Remote, s.Retries, s.Failures, elapsed.Round(time.Millisecond), cache)
	if s.Forks > 0 || s.PrefixMisses > 0 {
		fmt.Fprintf(w, "lab: fork: %d continuations: %d prefixes simulated, %d reused, %d evicted\n",
			s.Forks, s.PrefixMisses, s.PrefixHits, s.PrefixEvictions)
	}
	if s.MemoHits+s.MemoMisses > 0 {
		fmt.Fprintf(w, "lab: memo: %d derived results reused, %d computed\n", s.MemoHits, s.MemoMisses)
	}
	if r.Check {
		fmt.Fprintf(w, "lab: audit: %d runs verified, %d failed\n", s.Audited, s.AuditFailures)
	}
}

// intOverride adapts a set-an-int field to the override table, wrapping
// parse failures with the key and offending value.
func intOverride(set func(*core.Config, int)) func(*core.Config, string, string) error {
	return func(cfg *core.Config, k, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("override %s: bad value %q: %v", k, v, err)
		}
		set(cfg, n)
		return nil
	}
}

// overrides is the key=value vocabulary ApplyOverrides accepts, in the order
// error messages list it. The "keys:" list in those messages is derived from
// this table, so adding an override here is the whole change.
var overrides = []struct {
	key   string
	apply func(cfg *core.Config, k, v string) error
}{
	{"up", intOverride(func(c *core.Config, n int) { c.Sched.UpThreshold = n })},
	{"down", intOverride(func(c *core.Config, n int) { c.Sched.DownThreshold = n })},
	{"halflife-ms", intOverride(func(c *core.Config, n int) { c.Sched.HalfLifeMs = n })},
	{"tick-ms", intOverride(func(c *core.Config, n int) { c.Sched.TickMs = n })},
	{"tiny-wake-load", intOverride(func(c *core.Config, n int) { c.Sched.TinyWakeLoad = n })},
	{"sample-ms", intOverride(func(c *core.Config, n int) { c.Gov.SampleMs = n })},
	{"target-load", intOverride(func(c *core.Config, n int) { c.Gov.TargetLoad = n })},
	{"gov-down", intOverride(func(c *core.Config, n int) { c.Gov.DownThreshold = n })},
	{"governor", func(c *core.Config, _, v string) (err error) {
		c.Governor, err = ParseGovernor(v)
		return
	}},
	{"scheduler", func(c *core.Config, _, v string) (err error) {
		c.Scheduler, err = parseScheduler(v)
		return
	}},
	{"cores", func(c *core.Config, _, v string) (err error) {
		c.Cores, err = platform.ParseCoreConfig(v)
		return
	}},
	{"seed", intOverride(func(c *core.Config, n int) { c.Seed = int64(n) })},
}

// overrideKeys renders the vocabulary for error messages.
func overrideKeys() string {
	keys := make([]string, len(overrides))
	for i, o := range overrides {
		keys[i] = o.key
	}
	return strings.Join(keys, ", ")
}

// ApplyOverrides applies a comma-separated key=value override list to a run
// configuration — the vocabulary bldiff's -a/-b flags use to describe the
// two sides of a comparison ("up=350", "governor=ondemand,sample-ms=60"),
// blsweep's -param sweeps, and blexplore's -dim axes.
// Unknown keys and unparseable values are errors listing the vocabulary, so
// a typo can never silently diff a config against itself.
func ApplyOverrides(cfg *core.Config, spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad override %q (want key=value; keys: %s)", part, overrideKeys())
		}
		applied := false
		for _, o := range overrides {
			if o.key != k {
				continue
			}
			if err := o.apply(cfg, k, v); err != nil {
				return err
			}
			applied = true
			break
		}
		if !applied {
			return fmt.Errorf("unknown override key %q (keys: %s)", k, overrideKeys())
		}
	}
	return nil
}

// ParseGovernor resolves a governor name — the "governor" override and
// blsim's -governor flag — listing every name when s is none of them.
func ParseGovernor(s string) (core.GovernorKind, error) {
	for _, k := range []core.GovernorKind{core.Interactive, core.Performance,
		core.Powersave, core.Userspace, core.Ondemand, core.Conservative, core.PAST} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown governor %q (want interactive, performance, powersave, userspace, ondemand, conservative, or past)", s)
}

func parseScheduler(s string) (core.SchedulerKind, error) {
	for _, k := range []core.SchedulerKind{core.HMP, core.EfficiencyBased,
		core.ParallelismAware, core.EAS} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown scheduler %q (want hmp, efficiency, parallelism, or eas)", s)
}
