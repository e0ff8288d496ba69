// Package fleet lifts the in-process experiment orchestrator (internal/lab)
// into simulation-as-a-service: a Coordinator exposes an HTTP JSON job API,
// stateless Workers pull fingerprinted job specs on bounded leases, execute
// them through their own lab.Runner (content-addressed cache included), and
// publish results back; a Client plugs into lab.Runner.Remote so RunAll
// transparently fans a sweep out across N processes or machines.
//
// Three properties carry over from lab unchanged:
//
//   - Determinism: a job spec is the serialized form of exactly the state
//     lab.Fingerprint hashes, both sides verify that the reconstructed
//     config re-hashes to the submitted fingerprint, and a client moves jobs
//     only through a coordinator of its own build — so a result computed on
//     any worker is byte-identical to an in-process run, and RunAll's
//     submission-order result slots keep reports byte-identical too.
//   - Robustness: leases expire; a worker that dies mid-job loses its lease
//     and the job is requeued for another worker (bounded attempts). A
//     completion arriving after expiry is accepted idempotently — results
//     are deterministic, so the first completion wins and duplicates are
//     discarded.
//   - Backpressure: the coordinator's pending queue is bounded; submissions
//     beyond the bound are refused with 429 + Retry-After, which the client
//     honors, so a storm of submissions degrades to queuing delay, not to
//     coordinator memory growth.
package fleet

import (
	"fmt"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
	"biglittle/internal/platform"
)

// JobSpec is the wire form of one simulation job: every field
// lab.Fingerprint hashes — app name, seed, duration and the core.Knobs, whose
// Platform is a platform.ByName name. Fingerprint is the content hash the
// submitter computed; both coordinator and worker re-derive it from the
// reconstructed config and refuse the spec on mismatch. It hashes the
// config, not the code, so a spec verifies on any build: the client's
// build check is what keeps a fleet on one simulator build.
type JobSpec struct {
	Fingerprint string `json:"fingerprint"`

	App      string     `json:"app"`
	Seed     int64      `json:"seed"`
	Duration event.Time `json:"duration"`
	core.Knobs
}

// SpecFromJob serializes a lab.Job into its wire form, or explains why it
// cannot travel: jobs with live observers or hooks (unfingerprintable), fork
// specs, salts (which mark configs whose identity is not fully captured by
// the fingerprinted fields, e.g. composite apps), apps that cannot be
// rebuilt by name, or SoC names platform.ByName does not know. The
// round-trip is verified: the spec is reconstructed and must re-fingerprint
// to the original hash before it is allowed out the door.
func SpecFromJob(job lab.Job) (JobSpec, error) {
	if job.Fork != nil {
		return JobSpec{}, fmt.Errorf("fleet: job %q is snapshot-accelerated (fork at %v) and is not remotable: prefix snapshots capture process-local closure state that cannot be rebuilt on a worker; it must simulate locally", job.Config.App.Name, job.Fork.At)
	}
	if job.Salt != "" {
		return JobSpec{}, fmt.Errorf("fleet: job %q is salted (%q): its config under-identifies the run, so a worker could not rebuild it", job.Config.App.Name, job.Salt)
	}
	fp, ok := lab.Fingerprint(job)
	if !ok {
		return JobSpec{}, fmt.Errorf("fleet: job %q carries live observers, hooks or session phases and cannot be fingerprinted", job.Config.App.Name)
	}
	cfg := job.Config.Normalized()
	s := JobSpec{App: cfg.App.Name, Seed: cfg.Seed, Duration: cfg.Duration, Knobs: cfg.Knobs}
	re, err := s.Job()
	if err != nil {
		return JobSpec{}, err
	}
	refp, ok := lab.Fingerprint(re)
	if !ok || refp != fp {
		return JobSpec{}, fmt.Errorf("fleet: job %q does not survive spec round-trip (fingerprint %s -> %s); it likely carries a custom app body under a standard name", cfg.App.Name, short(fp), short(refp))
	}
	s.Fingerprint = fp
	return s, nil
}

// Job reconstructs the runnable lab.Job a spec describes, resolving the app
// model and checking the SoC by name. It does not verify the fingerprint —
// Verify does — because the coordinator also reconstructs specs it is only
// routing.
func (s JobSpec) Job() (lab.Job, error) {
	app, err := apps.ByName(s.App)
	if err != nil {
		return lab.Job{}, fmt.Errorf("fleet: spec names an app this build cannot construct: %w", err)
	}
	if s.Platform != "" {
		if _, err := platform.ByName(s.Platform); err != nil {
			return lab.Job{}, fmt.Errorf("fleet: spec names a platform this build cannot construct: %w", err)
		}
	}
	return lab.Job{Config: core.Config{App: app, Seed: s.Seed, Duration: s.Duration, Knobs: s.Knobs}}, nil
}

// Verify reconstructs the spec's job and checks that it re-fingerprints to
// the hash the submitter stamped — the cross-process determinism gate.
func (s JobSpec) Verify() (lab.Job, error) {
	job, err := s.Job()
	if err != nil {
		return lab.Job{}, err
	}
	fp, ok := lab.Fingerprint(job)
	if !ok {
		return lab.Job{}, fmt.Errorf("fleet: reconstructed job %q is not fingerprintable", s.App)
	}
	if s.Fingerprint == "" {
		return lab.Job{}, fmt.Errorf("fleet: spec for %q carries no fingerprint", s.App)
	}
	if fp != s.Fingerprint {
		return lab.Job{}, fmt.Errorf("fleet: spec for %q fingerprints to %s here but was submitted as %s — mixed simulator versions in the fleet?", s.App, short(fp), short(s.Fingerprint))
	}
	return job, nil
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "(none)"
	}
	return fp
}
