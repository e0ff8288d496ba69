package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/event"
	"biglittle/internal/lab"
	"biglittle/internal/telemetry"
)

// testJob builds a small, fully remotable job; seeds vary the fingerprint so
// tests can mint distinct jobs cheaply.
func testJob(t testing.TB, seed int64) lab.Job {
	t.Helper()
	app, err := apps.ByName("bbench")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(app)
	cfg.Duration = 200 * event.Millisecond
	cfg.Seed = seed
	return lab.Job{Config: cfg}
}

func TestSpecRoundTrip(t *testing.T) {
	job := testJob(t, 1)
	fp, ok := lab.Fingerprint(job)
	if !ok {
		t.Fatal("test job should be fingerprintable")
	}
	spec, err := SpecFromJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Fingerprint != fp {
		t.Fatalf("spec fingerprint %s, job fingerprints to %s", spec.Fingerprint, fp)
	}

	// The wire trip must not perturb identity: JSON out, JSON in, re-verify.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	re, err := back.Verify()
	if err != nil {
		t.Fatalf("round-tripped spec fails verification: %v", err)
	}
	refp, _ := lab.Fingerprint(re)
	if refp != fp {
		t.Fatalf("reconstructed job fingerprints to %s, want %s", refp, fp)
	}
}

func TestSpecRejectsNonRemotable(t *testing.T) {
	cases := map[string]struct {
		mutate func(*lab.Job)
		want   string
	}{
		"salted": {func(j *lab.Job) { j.Salt = "composite" }, "salted"},
		"live observer": {func(j *lab.Job) {
			j.Config.Telemetry = telemetry.NewCollector()
		}, "observers"},
		"session": {func(j *lab.Job) {
			j.Config.Phases = []core.Phase{{App: j.Config.App, Duration: j.Config.Duration}}
		}, "phases"},
	}
	for name, tc := range cases {
		job := testJob(t, 1)
		tc.mutate(&job)
		_, err := SpecFromJob(job)
		if err == nil {
			t.Errorf("%s: SpecFromJob accepted a non-remotable job", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	spec, err := SpecFromJob(testJob(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	tampered := spec
	tampered.Seed = 999 // changes the config but not the stamped fingerprint
	if _, err := tampered.Verify(); err == nil {
		t.Fatal("Verify accepted a spec whose config no longer matches its fingerprint")
	}

	unstamped := spec
	unstamped.Fingerprint = ""
	if _, err := unstamped.Verify(); err == nil {
		t.Fatal("Verify accepted a spec with no fingerprint")
	}

	unknownApp := spec
	unknownApp.App = "no-such-app"
	if _, err := unknownApp.Verify(); err == nil {
		t.Fatal("Verify accepted a spec naming an unknown app")
	}

	unknownPlatform := spec
	unknownPlatform.Platform = "no-such-soc"
	if _, err := unknownPlatform.Verify(); err == nil {
		t.Fatal("Verify accepted a spec naming an unknown platform")
	}
}
