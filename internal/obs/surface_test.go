package obs_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceFile is the committed operator surface: every metric family
// and the ones nothing reads (see unreadFamilies), every flag per
// `hostprof` subcommand, every /debug/* and every other
// route per process, every command (package main) of the module, every
// exported field of the two processes' Config structs, the product Go
// line count, the exported functions only tests call (held by
// TestProductReachability) and the byte sizes of the docs
// TestDocReferences reads. TestSurfaceRatchet holds the tree to it
// exactly, so a change that adds a name, a line or a doc byte edits the
// file in plain sight.
const surfaceFile = "../../surface.json"

// moduleRoot is the main module's root directory.
const moduleRoot = "../.."

type surface struct {
	MetricFamilies []string            `json:"metric_families"`
	UnreadFamilies []string            `json:"unread_families"`
	Flags          map[string][]string `json:"flags"`
	DebugRoutes    map[string][]string `json:"debug_routes"`
	APIRoutes      map[string][]string `json:"api_routes"`
	Commands       []string            `json:"commands"`
	ConfigFields   map[string][]string `json:"config_fields"`
	ProductGoLines int                 `json:"product_go_lines"`
	TestOnlyFuncs  []string            `json:"test_only_funcs"`
	DocBytes       map[string]int      `json:"doc_bytes"`
}

// configStructs names, per package directory, the Config struct whose
// exported fields are surface: what a caller of serve's and gateway's
// library form can set.
var configStructs = map[string]string{
	"server.Config":  "../server",
	"cluster.Config": "../cluster",
	"tracer.Config":  "tracer",
}

// routeSources names, per process, the functions that mount its HTTP
// routes: the process's own handler plus the -pprof helper.
var routeSources = map[string][]struct{ dir, fn string }{
	"serve":   {{"../server", "Backend.Handler"}, {"../../cmd/hostprof", "withPprof"}},
	"gateway": {{"../cluster", "Gateway.Handler"}, {"../../cmd/hostprof", "withPprof"}},
}

// TestSurfaceRatchet compares the live surface — the families the fully
// wired registries of TestDescribeCoverage hold, the flags each
// subcommand defines, the routes each process mounts, the product Go
// lines, the docs' bytes — with surface.json. A name the file lacks
// fails the test: adding surface is a visible edit of that file. A name
// the file has but the tree lost fails too, printing the contents to
// commit, so the file stays exact and a deleted name cannot come back
// unnoticed. test_only_funcs is printed here and checked by
// TestProductReachability.
func TestSurfaceRatchet(t *testing.T) {
	fams := map[string]bool{}
	for _, w := range wiredRegistries(t) {
		for _, m := range w.reg.Snapshot() {
			fams[m.Name] = true
		}
	}
	live := surface{
		MetricFamilies: sortedKeys(fams),
		Flags:          subcommandFlags(t, "../../cmd/hostprof"),
		DebugRoutes:    map[string][]string{},
		APIRoutes:      map[string][]string{},
		ProductGoLines: productGoLines(t, moduleRoot),
		TestOnlyFuncs:  testOnlyFuncs(t, moduleRoot),
		DocBytes:       map[string]int{},
	}
	for _, doc := range docFiles {
		fi, err := os.Stat(filepath.Join(moduleRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		live.DocBytes[doc] = int(fi.Size())
	}
	for proc, srcs := range routeSources {
		debug, api := map[string]bool{}, map[string]bool{}
		for _, src := range srcs {
			for _, r := range mountedRoutes(t, src.dir, src.fn) {
				switch {
				case strings.HasPrefix(r, "/debug/"):
					debug[r] = true
				case r != "/": // "/" is withPprof handing on to the process
					api[r] = true
				}
			}
		}
		live.DebugRoutes[proc] = sortedKeys(debug)
		live.APIRoutes[proc] = sortedKeys(api)
	}
	live.UnreadFamilies = unreadFamilies(t, moduleRoot, live.MetricFamilies)
	live.Commands = mainPackages(t, moduleRoot)
	live.ConfigFields = map[string][]string{}
	for name, dir := range configStructs {
		live.ConfigFields[name] = exportedFields(t, dir, "Config")
	}

	raw, err := os.ReadFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	var committed surface
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("%s: %v", surfaceFile, err)
	}
	added, removed := diffNames("metric family", committed.MetricFamilies, live.MetricFamilies)
	a, r := diffNames("command", committed.Commands, live.Commands)
	added, removed = append(added, a...), append(removed, r...)
	a, r = diffNames("unread metric family", committed.UnreadFamilies, live.UnreadFamilies)
	added, removed = append(added, a...), append(removed, r...)
	for _, kind := range []struct {
		what      string
		committed map[string][]string
		live      map[string][]string
	}{
		{"flag", committed.Flags, live.Flags},
		{"debug route", committed.DebugRoutes, live.DebugRoutes},
		{"api route", committed.APIRoutes, live.APIRoutes},
		{"config field", committed.ConfigFields, live.ConfigFields},
	} {
		for _, k := range sortedKeys(union(kind.committed, kind.live)) {
			a, r := diffNames(k+" "+kind.what, kind.committed[k], kind.live[k])
			added, removed = append(added, a...), append(removed, r...)
		}
	}
	lines := live.ProductGoLines != committed.ProductGoLines
	docs := !maps.Equal(live.DocBytes, committed.DocBytes)
	if len(added) == 0 && len(removed) == 0 && !lines && !docs {
		return
	}
	want, _ := json.MarshalIndent(live, "", "  ")
	if lines {
		t.Errorf("product Go is %d lines, surface.json holds %d — record the new count in plain sight",
			live.ProductGoLines, committed.ProductGoLines)
	}
	if docs {
		t.Errorf("doc bytes are %v, surface.json holds %v — record the new sizes in plain sight",
			live.DocBytes, committed.DocBytes)
	}
	for _, a := range added {
		t.Errorf("surface grew: %s is not in surface.json — an addition edits that file in plain sight", a)
	}
	for _, r := range removed {
		t.Errorf("surface shrank: %s is gone", r)
	}
	t.Logf("surface.json for this tree:\n%s", want)
}

func diffNames(what string, committed, live []string) (added, removed []string) {
	for _, n := range live {
		if !slices.Contains(committed, n) {
			added = append(added, what+" "+n)
		}
	}
	for _, n := range committed {
		if !slices.Contains(live, n) {
			removed = append(removed, what+" "+n)
		}
	}
	return added, removed
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func union(a, b map[string][]string) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// sloInputs are the request-latency histograms the SLO trackers read
// (prof.NewSLOTracker's source family), so they count as read.
var sloInputs = map[string]bool{
	"hostprof_http_request_seconds":    true,
	"hostprof_gateway_request_seconds": true,
}

// unreadFamilies lists the families of fams that no reader names. The
// readers are every _test.go file but this ratchet and the HELP lint
// (which name every family by construction), the bench harness's
// sources, `hostprof status` and README.md. A family is named by its
// full name, alone or followed by _bucket, _sum or _count. Each unread
// family is a question nobody asked or one nobody checks, so the list
// is held exactly: a new one is surface growth.
func unreadFamilies(t *testing.T, root string, fams []string) []string {
	t.Helper()
	var text bytes.Buffer
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || !familyReader(filepath.ToSlash(rel)) {
			return err
		}
		data, err := os.ReadFile(path)
		text.Write(data)
		text.WriteByte('\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range fams {
		named := regexp.MustCompile(`\b` + regexp.QuoteMeta(f) + `(_bucket|_sum|_count)?\b`)
		if !sloInputs[f] && !named.Match(text.Bytes()) {
			out = append(out, f)
		}
	}
	return out
}

// familyReader reports whether the module file at rel (slash-separated)
// is one whose naming a family makes the family read.
func familyReader(rel string) bool {
	switch {
	case rel == "README.md" || rel == "cmd/hostprof/status.go":
		return true
	case strings.HasPrefix(rel, "bench/"): // sources, not the built binary or run output
		ext := filepath.Ext(rel)
		return ext == ".go" || ext == ".sh" || ext == ".md"
	case strings.HasSuffix(rel, "_test.go"):
		return rel != "internal/obs/surface_test.go" && rel != "internal/obs/describe_lint_test.go"
	}
	return false
}

// mainPackages lists, relative to root, every directory of the module
// rooted there whose non-test Go files are package main. Nested modules
// (a directory with its own go.mod, like bench/) are not this module.
func mainPackages(t *testing.T, root string) []string {
	t.Helper()
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if file.Name.Name == "main" {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dirs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sortedKeys(dirs)
}

// productGoLines counts the lines of the module's non-test Go files,
// as `make loc` counts product Go: nested modules (bench/) and hidden
// and testdata directories are not product.
func productGoLines(t *testing.T, root string) int {
	t.Helper()
	lines := 0
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// exportedFields lists the exported field names of struct typeName in
// the package in dir, sorted.
func exportedFields(t *testing.T, dir, typeName string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	found := false
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typeName {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			found = true
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						fields[name.Name] = true
					}
				}
			}
			return false
		})
	}
	if !found {
		t.Fatalf("%s: no struct %s", dir, typeName)
	}
	return sortedKeys(fields)
}

// parseFuncs parses a package directory's non-test files and indexes
// its functions by name and its methods by "Receiver.Name".
func parseFuncs(t *testing.T, dir string) map[string]*ast.FuncDecl {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string]*ast.FuncDecl{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := fd.Name.Name
			if fd.Recv != nil {
				key = receiverName(fd.Recv.List[0].Type) + "." + key
			}
			funcs[key] = fd
		}
	}
	return funcs
}

// stringArg returns call's i-th argument when it is a string literal.
func stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// flagDefiners maps the flag.FlagSet methods that define a flag to the
// index of the flag-name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// subcommandFlags reads, from the source of the CLI package in dir,
// the flags each `flag.NewFlagSet("<subcommand>", ...)` defines —
// directly, or through a package function the flag set is passed to
// (the shared -log-* flags).
func subcommandFlags(t *testing.T, dir string) map[string][]string {
	funcs := parseFuncs(t, dir)
	out := map[string][]string{}
	for _, fd := range funcs {
		ast.Inspect(fd, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			sel, isSel := callSelector(call)
			id, isIdent := as.Lhs[0].(*ast.Ident)
			if !ok || !isSel || sel != "NewFlagSet" || !isIdent {
				return true
			}
			if name, ok := stringArg(call, 0); ok {
				names := map[string]bool{}
				collectFlags(funcs, fd, id.Name, names)
				out[name] = sortedKeys(names)
			}
			return true
		})
	}
	return out
}

// collectFlags adds the flags fd defines on the flag set variable fs.
func collectFlags(funcs map[string]*ast.FuncDecl, fd *ast.FuncDecl, fs string, names map[string]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == fs {
				if i, ok := flagDefiners[sel.Sel.Name]; ok {
					if name, ok := stringArg(call, i); ok {
						names[name] = true
					}
				}
			}
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || funcs[fn.Name] == nil {
			return true
		}
		callee := funcs[fn.Name]
		for i, arg := range call.Args {
			if a, ok := arg.(*ast.Ident); ok && a.Name == fs {
				if p := paramName(callee, i); p != "" {
					collectFlags(funcs, callee, p, names)
				}
			}
		}
		return true
	})
}

func paramName(fd *ast.FuncDecl, i int) string {
	for _, field := range fd.Type.Params.List {
		for _, n := range field.Names {
			if i == 0 {
				return n.Name
			}
			i--
		}
	}
	return ""
}

func callSelector(call *ast.CallExpr) (string, bool) {
	if call == nil {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// mountedRoutes lists the patterns function fn in package dir mounts
// with Handle/HandleFunc, method prefixes ("GET ") stripped.
func mountedRoutes(t *testing.T, dir, fn string) []string {
	t.Helper()
	fd := parseFuncs(t, dir)[fn]
	if fd == nil {
		t.Fatalf("%s: no function %s", dir, fn)
	}
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if sel, isSel := callSelector(call); ok && isSel && (sel == "Handle" || sel == "HandleFunc") {
			if pat, ok := stringArg(call, 0); ok {
				if _, path, found := strings.Cut(pat, " "); found {
					pat = path
				}
				out = append(out, pat)
			}
		}
		return true
	})
	return out
}
