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

// TestDocsNameExistingFlags holds the docs, the Makefile and CI to the flags
// each command defines. In every invocation of a command ("$ bl<name>",
// "go run ./cmd/bl<name>" or "/tmp/bl<name> ", continued across
// backslash-newlines), every -flag token (one dash, as the docs write Go
// flags) before a pipe, redirect, &, ;, # or closing backtick must name a
// flag that the command's non-test files pass to a flag or FlagSet
// definer. A command that calls cli.RegisterExperiment also defines its
// shared flags, and blbench defines internal/bench's.
func TestDocsNameExistingFlags(t *testing.T) {
	definer := regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration|Func|BoolFunc|TextVar|Var)(?:Var)?\(\s*(?:&[^,]+,\s*)?"([^"]+)"`)
	// defines adds the flags dir's non-test files define to names, and
	// reports whether those files call cli.RegisterExperiment.
	defines := func(dir string, names map[string]bool) (shared bool) {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range definer.FindAllSubmatch(data, -1) {
				names[string(m[1])] = true
			}
			shared = shared || strings.Contains(string(data), "cli.RegisterExperiment(")
		}
		return shared
	}
	flags := map[string]map[string]bool{}
	flagsOf := func(cmd string) map[string]bool {
		if names, ok := flags[cmd]; ok {
			return names
		}
		names := map[string]bool{}
		if defines(filepath.Join("cmd", cmd), names) {
			defines(filepath.Join("internal", "cli"), names)
		}
		if cmd == "blbench" {
			defines(filepath.Join("internal", "bench"), names)
		}
		flags[cmd] = names
		return names
	}

	call := regexp.MustCompile(`(?:\$ |go run \./cmd/|/tmp/)(bl\w+) ((?:[^|<>&;#\x60\n\\]|\\\n|\\)*)`)
	flagTok := regexp.MustCompile(`(?:^|\s)-([A-Za-z][\w-]*)`)
	uses := 0
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range call.FindAllStringSubmatchIndex(text, -1) {
			cmd, args := text[m[2]:m[3]], text[m[4]:m[5]]
			for _, f := range flagTok.FindAllStringSubmatchIndex(args, -1) {
				uses++
				if name := args[f[2]:f[3]]; !flagsOf(cmd)[name] {
					line := 1 + strings.Count(text[:m[4]+f[2]], "\n")
					t.Errorf("%s:%d: %s has no flag -%s", doc, line, cmd, name)
				}
			}
		}
	}
	t.Logf("%d flag uses resolved", uses)
}
