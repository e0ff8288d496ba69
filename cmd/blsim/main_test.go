package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestGovernorNames pins that blsim accepts every governor core runs, by the
// names the shared override vocabulary uses.
func TestGovernorNames(t *testing.T) {
	for _, gov := range []string{"interactive", "performance", "powersave", "userspace", "ondemand", "conservative", "past"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-app", "bbench", "-duration", "200ms", "-governor", gov}, &out, &errb); code != 0 {
			t.Errorf("-governor %s: exit %d, stderr:\n%s", gov, code, errb.String())
		}
		if !strings.HasPrefix(out.String(), "app: bbench ") {
			t.Errorf("-governor %s: output does not start with the run header:\n%s", gov, out.String())
		}
	}
}

func TestUnknownGovernorListsNames(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-app", "bbench", "-duration", "200ms", "-governor", "nope"}, &out, &errb); code == 0 {
		t.Fatal("-governor nope exited 0")
	}
	for _, name := range []string{`"nope"`, "interactive", "ondemand", "conservative", "past"} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error does not mention %s:\n%s", name, errb.String())
		}
	}
}
