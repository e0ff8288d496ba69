package biglittle_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// TestDocsNameExistingTests holds the docs, the Makefile and CI to the tests
// the tree declares: every Test, Benchmark and Fuzz name they cite must be
// a function declared in some _test.go file, cmd/blperf's included, so a
// renamed or deleted test cannot leave the docs citing it. CHANGES.md and
// ROADMAP.md are history, so they may cite tests that have since gone.
func TestDocsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and build caches such as .bench_build
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(data, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(data), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}
