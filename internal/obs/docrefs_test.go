package obs_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents whose references TestDocReferences holds
// to the tree, relative to the module root.
var docFiles = []string{"README.md", "DESIGN.md"}

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	flagRow     = regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	familyName  = regexp.MustCompile(`hostprof_[a-z0-9_]*\*?`)
	// goIdent is a word's leading pkg.Name or pkg.Type.Member.
	goIdent = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
)

// sourceExts are the extensions that make a backticked word a file
// reference even when it is not rooted at a module directory
// (`federate.go`, `tracer/export.go`).
var sourceExts = map[string]bool{".go": true, ".s": true, ".sh": true, ".md": true, ".json": true}

// TestDocReferences fails when README.md or DESIGN.md names what the
// tree does not have: a flag-table row (| `-name` |) for a flag no
// `hostprof` subcommand defines, or a backticked reference that does
// not resolve. Outside fenced blocks, each word of a code span is a
// reference when it is rooted at a top-level directory of the module
// (internal/…, cmd/…, bench/…) or has a source extension. A rooted
// path (globs allowed) must exist, and `dir/pkg.Ident` needs the
// package directory; a name or path tail with a source extension
// (`federate.go`, `tracer/export.go`, `sgns*.go`) must match the tail of
// some module file's path. A trailing `:N` needs the file to have at
// least N lines. A word that starts `pkg.Name` or `pkg.Type.Member`,
// where pkg is the base name of a directory under internal/ and Name is
// capitalised, must name what some .go file of that package, test files
// included, declares: a top-level or method name, or a method or field
// of Type (lower-case span names such as `store.ingest` are not
// identifiers).
// Anywhere in either document, a full hostprof_* name
// must be a family some wired registry exports, alone or with a
// _bucket, _sum or _count suffix; a prefix — ending in _ or _*, or
// one that families extend, as a MetricPrefix is — names no family.
func TestDocReferences(t *testing.T) {
	exported := map[string]bool{}
	for _, w := range wiredRegistries(t) {
		for _, m := range w.reg.Snapshot() {
			exported[m.Name] = true
		}
	}
	defined := map[string]bool{}
	for _, names := range subcommandFlags(t, "../../cmd/hostprof") {
		for _, n := range names {
			defined[n] = true
		}
	}
	entries, err := os.ReadDir(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			roots[e.Name()] = true
		}
	}
	files := moduleFiles(t, moduleRoot)
	decls := internalDecls(t, filepath.Join(moduleRoot, "internal"))
	for _, doc := range docFiles {
		raw, err := os.ReadFile(filepath.Join(moduleRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range familyName.FindAllString(string(raw), -1) {
			if !familyResolves(name, exported) {
				t.Errorf("%s: %s: no wired registry exports that family", doc, name)
			}
		}
		text := fencedBlock.ReplaceAllString(string(raw), "")
		for _, m := range flagRow.FindAllStringSubmatch(text, -1) {
			if !defined[m[1]] {
				t.Errorf("%s: flag-table row -%s: no hostprof subcommand defines it", doc, m[1])
			}
		}
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			for _, word := range strings.Fields(span[1]) {
				if ref, line, rooted, ok := docReference(word, roots); ok && !resolves(ref, line, rooted, files) {
					t.Errorf("%s: %s (in `%s`) does not resolve in the tree", doc, word, span[1])
				}
				if m := goIdent.FindStringSubmatch(word); m != nil {
					if pkg, ok := decls[m[1]]; ok && !pkg[strings.TrimSuffix(m[2]+"."+m[3], ".")] {
						t.Errorf("%s: %s (in `%s`): package %s declares no such identifier", doc, m[0], span[1], m[1])
					}
				}
			}
		}
	}
}

// familyResolves reports whether name, a hostprof_* word of a
// document, is an exported family, one of its series, or a prefix.
func familyResolves(name string, exported map[string]bool) bool {
	if strings.HasSuffix(name, "_") || strings.HasSuffix(name, "*") || exported[name] {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && exported[base] {
			return true
		}
	}
	for fam := range exported {
		if strings.HasPrefix(fam, name+"_") {
			return true
		}
	}
	return false
}

// docReference reports whether word is a reference to the tree, and
// returns it normalized: no leading ./, trailing /... or :N (returned
// as line).
func docReference(word string, roots map[string]bool) (ref string, line int, rooted, ok bool) {
	if strings.Contains(word, "://") || strings.HasPrefix(word, "/") || strings.HasPrefix(word, "-") {
		return "", 0, false, false
	}
	ref = strings.TrimSuffix(strings.TrimPrefix(word, "./"), "/...")
	if i := strings.LastIndexByte(ref, ':'); i > 0 {
		if n, err := strconv.Atoi(ref[i+1:]); err == nil {
			ref, line = ref[:i], n
		}
	}
	first, _, nested := strings.Cut(ref, "/")
	rooted = nested && roots[first]
	return ref, line, rooted, rooted || sourceExts[path.Ext(ref)]
}

// resolves reports whether ref names something in the tree (see
// TestDocReferences); files holds every module file's slash path.
func resolves(ref string, line int, rooted bool, files []string) bool {
	var hits []string
	if rooted {
		hits, _ = filepath.Glob(filepath.Join(moduleRoot, ref))
		if dir, last := path.Split(ref); len(hits) == 0 {
			if pkg, ident, ok := strings.Cut(last, "."); ok && ident != "" && unicode.IsUpper(rune(ident[0])) {
				hits, _ = filepath.Glob(filepath.Join(moduleRoot, dir, pkg))
			}
		}
	} else {
		depth := strings.Count(ref, "/") + 1
		for _, f := range files {
			segs := strings.Split(f, "/")
			if len(segs) < depth {
				continue
			}
			if ok, _ := path.Match(ref, strings.Join(segs[len(segs)-depth:], "/")); ok {
				hits = append(hits, filepath.Join(moduleRoot, f))
			}
		}
	}
	if line == 0 {
		return len(hits) > 0
	}
	for _, h := range hits {
		if data, err := os.ReadFile(h); err == nil && bytes.Count(data, []byte("\n")) >= line {
			return true
		}
	}
	return false
}

// moduleFiles lists the slash paths, relative to root, of every file
// under it outside hidden directories.
func moduleFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		out = append(out, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// internalDecls maps the base name of every package directory under
// root to what its .go files, test files included, declare: top-level
// names and method names ("Name", so `store.Snapshot()` names the method
// a store value has) and the methods and fields of its types
// ("Type.Member").
func internalDecls(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(p))
		names := out[pkg]
		if names == nil {
			names = map[string]bool{}
			out[pkg] = names
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
				if decl.Recv != nil {
					names[receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields != nil {
							for _, f := range fields.List {
								for _, n := range f.Names {
									names[spec.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// receiverName returns the type name of a method receiver: T, *T, T[E]
// or *T[E].
func receiverName(recv ast.Expr) string {
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		recv = idx.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
