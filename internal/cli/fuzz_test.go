package cli

import (
	"strings"
	"testing"
	"time"

	"biglittle/internal/apps"
	"biglittle/internal/core"
	"biglittle/internal/session"
)

// docSpecs are override specs the commands' docs and smoke targets use; each
// must be accepted.
var docSpecs = []string{
	"up=350",
	"up=700,governor=interactive",
	"governor=ondemand,sample-ms=60",
	"up=350, down=128, governor=ondemand, sample-ms=60, cores=L2+B4, seed=7",
	"sample-ms=10",
	"target-load=60",
	"halflife-ms=16",
	"scheduler=eas",
	"cores=L4+B1",
	"",
}

// FuzzApplyOverrides: the override parser must never panic, and whether it
// accepts a spec depends only on the spec, not on the config it lands on.
func FuzzApplyOverrides(f *testing.F) {
	app, err := apps.ByName("bbench")
	if err != nil {
		f.Fatal(err)
	}
	for _, spec := range docSpecs {
		cfg := core.DefaultConfig(app)
		if err := ApplyOverrides(&cfg, spec); err != nil {
			f.Fatalf("documented spec %q rejected: %v", spec, err)
		}
		f.Add(spec)
	}
	f.Add("up")
	f.Add("bogus=1")
	f.Add("governor=warp,up=1")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg := core.DefaultConfig(app)
		err := ApplyOverrides(&cfg, spec)
		again := ApplyOverrides(&cfg, spec)
		if (err == nil) != (again == nil) {
			t.Fatalf("ApplyOverrides(%q): first %v, then %v on the overridden config", spec, err, again)
		}
	})
}

// renderPhases writes phases back in the ParsePhases format.
func renderPhases(phases []session.Phase) string {
	parts := make([]string, len(phases))
	for i, p := range phases {
		parts[i] = p.App.Name + ":" + time.Duration(p.Duration).String()
	}
	return strings.Join(parts, ",")
}

// FuzzParsePhases: the session-phase parser never panics, every phase it
// accepts names a known app and has a positive duration, and rendering what
// it accepted parses back to the same phases.
func FuzzParsePhases(f *testing.F) {
	for _, seed := range []string{
		"browser:20s,video_player:10s",
		"browser:1s, video_player:2s",
		"bbench:1.5s,youtube:100ms,fifa15:1h",
		"browser:0s",
		"browser:-1s",
		"browser",
		"nope:1s",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, arg string) {
		phases, err := ParsePhases(arg)
		if err != nil {
			return
		}
		for _, p := range phases {
			if _, err := apps.ByName(p.App.Name); err != nil || p.Duration <= 0 {
				t.Fatalf("ParsePhases(%q) accepted phase %s:%v", arg, p.App.Name, p.Duration)
			}
		}
		again, err := ParsePhases(renderPhases(phases))
		if err != nil {
			t.Fatalf("ParsePhases(%q): rendering %q fails to parse: %v", arg, renderPhases(phases), err)
		}
		if renderPhases(again) != renderPhases(phases) {
			t.Fatalf("ParsePhases(%q) = %q, but its rendering parses to %q", arg, renderPhases(phases), renderPhases(again))
		}
	})
}
