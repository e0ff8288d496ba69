package biglittle_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveUsers holds the root package to "exported API needs a
// user". Every exported package-level name must be referenced as
// biglittle.X from a .go file under cmd/ (cmd/blperf included, though it is
// its own module) or examples/, or from a root test — or be kept by a name
// that is:
//
//   - a name mentioned in a kept declaration (a function's signature, a
//     type's definition, a constant's or variable's spec) stays, so
//     parameter and result types remain nameable;
//   - the methods of a kept type stay, and so do the names their
//     signatures mention;
//   - every constant or alias of the same type as a kept constant stays,
//     so an enum is kept or dropped whole.
//
// The root package is type-checked from source against the export data
// `go list -export -deps` reports for its imports, which takes well under a
// second on a warm build cache.
func TestFacadeNamesHaveUsers(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	pkg, info, decls := loadFacade(t)
	kept := keepFacade(pkg, info, decls, facadeUses(t))
	var unused []string
	for _, name := range pkg.Scope().Names() {
		if token.IsExported(name) && !kept[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported root names have no user under cmd/, examples/ or the root tests; delete them or add a caller:\n%s",
			len(unused), strings.Join(unused, " "))
	}
}

// loadFacade type-checks the root package's non-test files against their
// dependencies' export data. decls maps each package-level name to the
// syntax whose mentions it keeps: a function's signature, a whole type,
// const or var spec, and for a type also its methods' receivers and
// signatures.
func loadFacade(t *testing.T) (*types.Package, *types.Info, map[string][]ast.Node) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", ".").Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go list -export: %v\n%s", err, stderr)
	}
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fs.ErrNotExist
		}
		return os.Open(exports[path])
	}

	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if !strings.HasSuffix(name, "_test.go") {
			files = append(files, parseGo(t, fset, name))
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check("biglittle", fset, files, info)
	if err != nil {
		t.Fatalf("type-check root package: %v", err)
	}

	decls := map[string][]ast.Node{}
	for _, file := range files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = append(decls[d.Name.Name], d.Type)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					decls[id.Name] = append(decls[id.Name], d.Recv, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = append(decls[s.Name.Name], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[n.Name] = append(decls[n.Name], s)
						}
					}
				}
			}
		}
	}
	return pkg, info, decls
}

// keepFacade closes the directly used names under the rules
// TestFacadeNamesHaveUsers documents.
func keepFacade(pkg *types.Package, info *types.Info, decls map[string][]ast.Node, used map[string]bool) map[string]bool {
	scope := pkg.Scope()
	kept := map[string]bool{}
	var work []string
	keep := func(name string) {
		if !kept[name] && scope.Lookup(name) != nil {
			kept[name] = true
			work = append(work, name)
		}
	}
	for name := range used {
		keep(name)
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, n := range decls[name] {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && obj.Parent() == scope {
						keep(obj.Name())
					}
				}
				return true
			})
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		for _, other := range scope.Names() {
			switch o := scope.Lookup(other).(type) {
			case *types.Const:
				if types.Identical(o.Type(), c.Type()) {
					keep(other)
				}
			case *types.TypeName:
				if o.IsAlias() && types.Identical(o.Type(), c.Type()) {
					keep(other)
				}
			}
		}
	}
	return kept
}

// facadeUses returns every X that a file under cmd/ or examples/, or a root
// test, references as biglittle.X. Dot-directories are skipped: they hold
// build output such as a benchmark's module cache.
func facadeUses(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go"):
				paths = append(paths, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		file := parseGo(t, fset, path)
		local := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "biglittle" {
				local = "biglittle"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return used
}

func parseGo(t *testing.T, fset *token.FileSet, path string) *ast.File {
	t.Helper()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return file
}
