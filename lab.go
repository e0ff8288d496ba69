package biglittle

import "biglittle/internal/lab"

// LabRunner is the experiment orchestrator: it executes LabJobs on a
// bounded worker pool and memoizes results in a content-addressed on-disk
// cache, so warm re-runs of the same configuration skip simulation. Set one
// as ExperimentOptions.Runner to parallelize and cache the Fig*/Table*
// drivers; the zero value runs with GOMAXPROCS workers and no cache.
// Attach a *slog.Logger to Log for structured sweep progress (per-job
// transitions, completed/total, jobs/sec, ETA — what the experiment
// commands' -v flag does).
type LabRunner = lab.Runner

// LabJob is one declarative experiment for a LabRunner: a fully resolved
// Config plus optional fingerprint salt and an optional fork spec for
// snapshot acceleration. Per-job observers go on the job's Config, which
// makes the job uncacheable.
type LabJob = lab.Job

// LabForkSpec names the shared warmed prefix of a fork-accelerated LabJob:
// the base config to run and the fork time. Jobs sharing a (Base, At) share
// one prefix simulation (see DESIGN.md §9).
type LabForkSpec = lab.ForkSpec

// LabCache is the content-addressed result store backing warm re-runs.
type LabCache = lab.Cache

// LabStats counts what a LabRunner did: jobs, cache hits and misses,
// simulations, results stored to the cache, retries, failures, remote
// results, audit outcomes, fork prefixes, and derived results reused or
// computed.
type LabStats = lab.Stats

// NewLabRunner returns a runner with the given worker count (<=0 for
// GOMAXPROCS) and cache (nil to disable memoization).
func NewLabRunner(workers int, cache *LabCache) *LabRunner { return lab.New(workers, cache) }

// OpenLabCache opens (creating if needed) the result cache rooted at dir;
// "" uses the default cache root, the OS equivalent of ~/.cache/biglittle.
func OpenLabCache(dir string) (*LabCache, error) { return lab.Open(dir) }

// LabFingerprint returns the content fingerprint a runner would cache the
// job under, and whether the job is cacheable at all (jobs carrying live
// observers or an unnamed custom platform are not).
func LabFingerprint(job LabJob) (string, bool) { return lab.Fingerprint(job) }
