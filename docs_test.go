package biglittle_test

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameExistingCommands holds the docs, the Makefile, CI and the
// verify skill to the commands cmd/ holds: every cmd/<name> path, every
// backticked `bl<name> ...` command and every "$ bl<name>" shell line must
// name a directory under cmd/. CHANGES.md and ROADMAP.md are history, so
// they may name commands that have since gone.
func TestDocsNameExistingCommands(t *testing.T) {
	refs := []*regexp.Regexp{
		regexp.MustCompile(`cmd/(\w+)`),
		regexp.MustCompile("`(bl\\w+)"),
		regexp.MustCompile(`(?m)^\s*\$ (bl\w+)`),
	}
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range refs {
			for _, m := range re.FindAllStringSubmatch(string(data), -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s: %q names cmd/%s, which does not exist", doc, m[0], m[1])
				}
			}
		}
	}
}
