package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGovernorNames pins that blsim accepts every governor core runs, by the
// names the shared override vocabulary uses.
func TestGovernorNames(t *testing.T) {
	for _, gov := range []string{"interactive", "performance", "powersave", "userspace", "ondemand", "conservative", "past"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-app", "bbench", "-duration", "200ms", "-set", "governor=" + gov}, &out, &errb); code != 0 {
			t.Errorf("-set governor=%s: exit %d, stderr:\n%s", gov, code, errb.String())
		}
		if !strings.HasPrefix(out.String(), "app: bbench ") {
			t.Errorf("-set governor=%s: output does not start with the run header:\n%s", gov, out.String())
		}
	}
}

func TestUnknownGovernorListsNames(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-app", "bbench", "-duration", "200ms", "-set", "governor=nope"}, &out, &errb); code == 0 {
		t.Fatal("-set governor=nope exited 0")
	}
	for _, name := range []string{`"nope"`, "interactive", "ondemand", "conservative", "past"} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("error does not mention %s:\n%s", name, errb.String())
		}
	}
}

// TestFoldedCommands pins the outputs of the three commands blsim absorbed.
// testdata/folded.golden holds what the former bltrace, blmetrics and
// blsession printed, one "=== <command line>" section each, and the SHA-256
// of every file they wrote ("=== sha256 <file>"). The former commands
// generated it; it is never regenerated. blsim, given the equivalent flags,
// must print each section byte for byte and write byte-identical files.
func TestFoldedCommands(t *testing.T) {
	data, err := os.ReadFile("testdata/folded.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	var key string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if k, ok := strings.CutPrefix(line, "=== "); ok {
			key = strings.TrimSuffix(k, "\n")
			continue
		}
		golden[key] += line
	}

	for _, c := range []struct {
		old   string   // the former command's line in the golden
		args  []string // blsim's equivalent flags
		files []string // the files both write, named relative to a fresh directory
		skip  int      // leading lines of the old output that blsim's own report replaces
	}{
		{
			old:   "bltrace -app encoder -from 1s -window 1s -duration 2s -chrome chrome.json",
			args:  []string{"-app", "encoder", "-duration", "2s", "-trace", "1s:1s", "-chrome", "chrome.json"},
			files: []string{"chrome.json"},
		},
		{
			old: "bltrace -app eternity_warrior -cores L2+B1 -from 2s -window 1s -duration 3s -width 80 -seed 4",
			args: []string{"-app", "eternity_warrior", "-set", "cores=L2+B1", "-duration", "3s",
				"-trace", "2s:1s", "-width", "80", "-seed", "4"},
		},
		{
			old: "blmetrics -app fifa15 -cores L4+B2 -duration 3s -seed 7 -csv events.csv -json metrics.json -prom metrics.prom",
			args: []string{"-app", "fifa15", "-set", "cores=L4+B2", "-duration", "3s", "-seed", "7", "-telemetry",
				"-telemetry-csv", "events.csv", "-telemetry-json", "metrics.json", "-prom", "metrics.prom"},
			files: []string{"events.csv", "metrics.json", "metrics.prom"},
			skip:  1,
		},
		{
			old:  "blmetrics -app bbench -duration 1s -seed 3 -prom -",
			args: []string{"-app", "bbench", "-duration", "1s", "-seed", "3", "-telemetry", "-prom", "-"},
			skip: 1,
		},
		{
			old:  "blsession -phases browser:2s,fifa15:2s -seed 5",
			args: []string{"-phases", "browser:2s,fifa15:2s", "-seed", "5"},
		},
	} {
		t.Run(strings.Fields(c.old)[0], func(t *testing.T) {
			want, ok := golden[c.old]
			if !ok {
				t.Fatalf("golden has no section %q", c.old)
			}
			for i := 0; i < c.skip; i++ {
				_, want, _ = strings.Cut(want, "\n")
			}
			dir := t.TempDir()
			args := append([]string(nil), c.args...)
			for i, a := range args {
				for _, f := range c.files {
					if a == f {
						args[i] = filepath.Join(dir, f)
					}
				}
			}
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("blsim %s: exit %d, stderr:\n%s", strings.Join(c.args, " "), code, errb.String())
			}
			got := strings.ReplaceAll(out.String(), dir+string(filepath.Separator), "")
			if !strings.Contains(got, want) {
				t.Errorf("blsim %s does not print the %q section byte for byte.\nwant:\n%s\ngot:\n%s",
					strings.Join(c.args, " "), c.old, want, got)
			}
			for _, f := range c.files {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got, want := hex.EncodeToString(sum[:])+"\n", golden["sha256 "+f]; got != want {
					t.Errorf("%s: sha256 %s, golden %s", f, strings.TrimSpace(got), strings.TrimSpace(want))
				}
			}
		})
	}
}

// TestSessionTrace pins that a session takes the observers a run takes:
// -trace draws the window's timeline after the session table, which reads
// byte for byte as it does without -trace. -matrix stays a run-only flag.
func TestSessionTrace(t *testing.T) {
	session := []string{"-phases", "browser:1s,fifa15:1s"}
	var plain, traced, errb bytes.Buffer
	if code := run(session, &plain, &errb); code != 0 {
		t.Fatalf("blsim %s: exit %d, stderr:\n%s", strings.Join(session, " "), code, errb.String())
	}
	if code := run(append(session, "-trace", "500ms:300ms"), &traced, &errb); code != 0 {
		t.Fatalf("blsim -trace on a session: exit %d, stderr:\n%s", code, errb.String())
	}
	table, timeline, ok := strings.Cut(traced.String(), "\ntrace: ")
	if !ok || !strings.Contains(timeline, "cpu0 little |") {
		t.Fatalf("blsim -trace on a session drew no timeline:\n%s", traced.String())
	}
	if table != plain.String() {
		t.Errorf("-trace changed the session table:\nwith:\n%s\nwithout:\n%s", table, plain.String())
	}
	if code := run(append(session, "-matrix"), &plain, &errb); code != 2 {
		t.Errorf("-matrix on a session: exit %d, want 2", code)
	}
}
