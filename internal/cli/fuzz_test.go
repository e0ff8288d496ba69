package cli

import (
	"testing"

	"biglittle/internal/apps"
	"biglittle/internal/core"
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
