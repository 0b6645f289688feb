package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// benchServeFlags reads the `serveFlags` literal from bench/setup.go,
// the flags every benchmark workload passes to `hostprof serve`.
func benchServeFlags(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../../bench/setup.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	ast.Inspect(file, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "serveFlags" {
			return true
		}
		for _, elt := range vs.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(elt.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			flags = append(flags, s)
		}
		return false
	})
	if len(flags) == 0 {
		t.Fatal("bench/setup.go: no serveFlags literal")
	}
	return flags
}

// TestBenchServeCommandLinesStart runs `serve` with exactly the command
// line bench/setup.go builds, with and without -ann, over a missing
// ontology: every flag must parse, so the run fails opening the
// ontology, not on "flag provided but not defined". serve's flag set
// exits the process on a parse error, so each run is a child process.
func TestBenchServeCommandLinesStart(t *testing.T) {
	if args := os.Getenv("HOSTPROF_TEST_SERVE_ARGS"); args != "" {
		var argv []string
		if err := json.Unmarshal([]byte(args), &argv); err != nil {
			t.Fatal(err)
		}
		err := cmdServe(argv)
		io.WriteString(os.Stderr, "cmdServe: "+err.Error()+"\n")
		os.Exit(3)
	}
	dir := t.TempDir()
	ontPath := filepath.Join(dir, "missing-ontology.jsonl")
	base := append([]string{
		"-ontology", ontPath,
		"-blocklist", filepath.Join(dir, "blocklist.hosts"),
		"-data-dir", filepath.Join(dir, "data"),
	}, benchServeFlags(t)...)
	for _, argv := range [][]string{base, append(append([]string(nil), base...), "-ann")} {
		enc, _ := json.Marshal(argv)
		cmd := exec.Command(os.Args[0], "-test.run=^TestBenchServeCommandLinesStart$")
		cmd.Env = append(os.Environ(), "HOSTPROF_TEST_SERVE_ARGS="+string(enc))
		out, _ := cmd.CombinedOutput()
		if strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("serve %v: a bench flag is undefined:\n%s", argv, out)
		}
		if want := "cmdServe: open " + ontPath + ": no such file or directory"; !strings.Contains(string(out), want) {
			t.Fatalf("serve %v: want %q, got:\n%s", argv, want, out)
		}
	}
}

// TestWithPprof: without -pprof the handler passes through and the
// runtime's mutex sampling stays at its default; with it, the named
// profiles answer pprof-gzip and mutex sampling is on at
// pprofMutexFraction.
func TestWithPprof(t *testing.T) {
	t.Cleanup(func() {
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "inner") })

	withPprof(false, inner)
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Fatalf("without -pprof mutex fraction = %d, want the runtime default 0", got)
	}

	srv := httptest.NewServer(withPprof(true, inner))
	defer srv.Close()
	if got := runtime.SetMutexProfileFraction(-1); got != pprofMutexFraction {
		t.Fatalf("with -pprof mutex fraction = %d, want %d", got, pprofMutexFraction)
	}
	for _, name := range []string{"heap", "goroutine", "mutex", "block"} {
		resp, err := http.Get(srv.URL + "/debug/pprof/" + name)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
			t.Fatalf("/debug/pprof/%s: code %d, %d bytes, not pprof-gzip", name, resp.StatusCode, len(body))
		}
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "inner" {
		t.Fatalf("non-pprof path answered %q, want the wrapped handler", body)
	}
}
