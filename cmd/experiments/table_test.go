package main

import (
	"os"
	"path/filepath"
	"testing"

	"hostprof/internal/experiment"
)

// TestSmallTableByteForByte runs `experiments -small` in process and
// wants the table it prints on stdout byte for byte as
// testdata/small_table.md holds it. The run is a function of its seed:
// the same at any GOMAXPROCS and, since t-SNE's exp is portable, on
// amd64 and under GOARCH=386 (CI runs both). A change that moves a
// number rewrites the file with
//
//	go run ./cmd/experiments -small > cmd/experiments/testdata/small_table.md
//
// and says why.
func TestSmallTableByteForByte(t *testing.T) {
	s, err := experiment.NewSetup(experiment.SmallConfig(defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	all, err := experiment.RunAll(s, defaultTSNEIters)
	if err != nil {
		t.Fatal(err)
	}
	got := all.MarkdownReport() + "\n" // main prints it with Println
	path := filepath.Join("testdata", "small_table.md")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-small's table differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
