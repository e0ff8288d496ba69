package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSweepOverrideKey pins that -param takes the shared override
// vocabulary: "up" is the HMP up-threshold key bldiff -a/-b also accepts.
func TestSweepOverrideKey(t *testing.T) {
	code, out, errs := runCmd(t, "-param", "up", "-values", "400,700", "-app", "bbench", "-duration", "200ms", "-no-cache")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and two rows, got:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "app,metric,up,") {
		t.Errorf("header = %q, want an up column", lines[0])
	}
	for i, v := range []string{"400", "700"} {
		if !strings.HasPrefix(lines[i+1], "bbench,Latency,"+v+",") {
			t.Errorf("row %d = %q, want bbench at up=%s", i+1, lines[i+1], v)
		}
	}
	// The two thresholds must actually reach the scheduler.
	if lines[1][len("bbench,Latency,400,"):] == lines[2][len("bbench,Latency,700,"):] {
		t.Error("up=400 and up=700 produced identical rows")
	}
}

func TestSweepUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"old knob name", []string{"-param", "up-threshold", "-app", "bbench", "-no-cache"},
			[]string{`"up-threshold"`, "keys: up, down, halflife-ms"}},
		{"empty list", []string{"-values", ",", "-app", "bbench", "-no-cache"}, []string{"empty value list"}},
		{"two keys", []string{"-param", "up=350,down", "-values", "100", "-app", "bbench", "-no-cache"}, []string{"single override key"}},
		{"bad value", []string{"-param", "up", "-values", "400,x", "-app", "bbench", "-no-cache"}, []string{`bad value "x"`}},
	}
	for _, tc := range cases {
		code, out, errs := runCmd(t, tc.args...)
		if code == 0 {
			t.Errorf("%s: exit 0, want non-zero", tc.name)
		}
		if out != "" {
			t.Errorf("%s: wrote CSV on error:\n%s", tc.name, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(errs, w) {
				t.Errorf("%s: stderr %q does not mention %q", tc.name, errs, w)
			}
		}
	}
}
