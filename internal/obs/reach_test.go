package obs_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProductReachability holds the Go API of internal/ to what the
// product runs. An exported top-level function, or an exported method
// of an exported type, declared in a non-test file under internal/ is
// reached when its name appears in some non-test Go file of the main
// module — as an identifier or a selector, outside its own declaration's
// name — or in a root-package Example function, which documents the
// facade. A method name in a product interface type counts, since a
// call through the interface names it there. bench/ is its own module
// and reaches nothing.
//
// The names no product file reaches must equal surface.json's
// test_only_funcs exactly: a new test-only function fails here, and so
// does a listed one that gains a product caller, so the list can only
// be edited in plain sight. Matching is by name, not by type: a dead
// method whose name is common (String, Reset, Close) is missed when any
// product file names it, but a function that has a product caller is
// never reported unreached.
func TestProductReachability(t *testing.T) {
	live := testOnlyFuncs(t, moduleRoot)
	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	var committed surface
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("%s: %v", surfaceFile, err)
	}
	added, removed := diffNames("test-only function", committed.TestOnlyFuncs, live)
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	for _, a := range added {
		t.Errorf("%s has no product caller and is not in surface.json — delete it, move it into the _test.go file that needs it, or list it in plain sight", a)
	}
	for _, r := range removed {
		t.Errorf("%s is listed in surface.json but is gone or has a product caller", r)
	}
	want, _ := json.MarshalIndent(live, "  ", "  ")
	t.Logf(`surface.json "test_only_funcs" for this tree:
  %s`, want)
}

// testOnlyFuncs lists, as sorted "pkg.Func" and "pkg.Type.Method"
// names, the exported functions and methods of exported types under
// root/internal that no product file reaches (see
// TestProductReachability).
func testOnlyFuncs(t *testing.T, root string) []string {
	t.Helper()
	used := map[string]bool{}
	type decl struct{ key, name string }
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		test := strings.HasSuffix(rel, "_test.go")
		rootExamples := test && !strings.Contains(rel, "/")
		if test && !rootExamples {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, n := range file.Decls {
			fd, isFunc := n.(*ast.FuncDecl)
			if rootExamples && (!isFunc || !strings.HasPrefix(fd.Name.Name, "Example")) {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (!isFunc || id != fd.Name) {
					used[id.Name] = true
				}
				return true
			})
			if test || !isFunc || !fd.Name.IsExported() || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			key := file.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := receiverName(fd.Recv.List[0].Type)
				if !token.IsExported(recv) {
					continue
				}
				key = file.Name.Name + "." + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] {
			out = append(out, d.key)
		}
	}
	slices.Sort(out)
	return out
}
