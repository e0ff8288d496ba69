package lab

import (
	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
)

// print is the canonical, serializable view of a resolved job config. It is
// marshaled with encoding/json — which sorts map keys — and hashed, so the
// fingerprint is stable across processes. The bytes hashed are exactly
// json.Marshal's, written into a pooled codec that also holds the print, so
// a fingerprint allocates only its string. Embedding core.Knobs puts every
// knob in the hash by construction; it holds the knobs' Effective view, so
// configs that differ only in knobs their governor never reads share one
// fingerprint. Field order is part of the hash, which is why Seed and
// Duration stay here, ahead of the knobs.
type print struct {
	App      string      `json:"app"`
	Desc     string      `json:"desc"`
	Metric   apps.Metric `json:"metric"`
	Salt     string      `json:"salt,omitempty"`
	Seed     int64       `json:"seed"`
	Duration event.Time  `json:"duration"`
	core.Knobs

	// Fork identity: a fork-accelerated job's result depends on the prefix
	// it resumed from (variant knobs apply only from the fork point), so the
	// base config's own fingerprint and the fork time fold into the hash —
	// a forked variant never shares a cache entry with a from-scratch run
	// of the same config.
	ForkBase string     `json:"fork_base,omitempty"`
	ForkAt   event.Time `json:"fork_at,omitempty"`
}

// Fingerprint returns the content hash identifying a job's simulation, and
// whether the job is cacheable at all. Uncacheable jobs are those whose
// config carries live observers or opaque hooks that the cache could not
// replay on a hit:
//
//   - OnSystem may mutate the assembled system arbitrarily;
//   - Telemetry, Profiler, and Xray side effects (events, attribution,
//     decision spans) would be silently skipped if the result came from disk;
//   - a caller-supplied Check auditor must observe a live run to report
//     anything;
//   - a session's phase list is not part of the print (see core.Config's
//     Phases), so two sessions would share a key.
//
// Such jobs still run through the worker pool; they just always simulate.
// (The runner's own Check mode attaches its auditor after fingerprinting, so
// it does not affect cacheability.)
func Fingerprint(job Job) (string, bool) {
	cfg := job.Config.Normalized()
	if cfg.OnSystem != nil || cfg.Telemetry != nil || cfg.Profiler != nil || cfg.Xray != nil || cfg.Check != nil || cfg.Digest != nil || len(cfg.Phases) > 0 {
		return "", false
	}
	c := getCodec()
	defer c.put()
	c.print = print{
		App:      cfg.App.Name,
		Desc:     cfg.App.Desc,
		Metric:   cfg.App.Metric,
		Salt:     job.Salt,
		Seed:     cfg.Seed,
		Duration: cfg.Duration,
		Knobs:    cfg.Knobs.Effective(),
	}
	if job.Fork != nil {
		baseFp, ok := Fingerprint(Job{Config: job.Fork.Base})
		if !ok {
			return "", false
		}
		c.print.ForkBase = baseFp
		c.print.ForkAt = job.Fork.At
	}
	data, err := c.encode(&c.print)
	if err != nil {
		return "", false
	}
	return c.sum(data), true
}
