package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIPipelineEndToEnd drives every subcommand over a temp dir:
// gen → sniff → train → profile → similar → export.
func TestCLIPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()

	if err := cmdGen([]string{
		"-out", dir, "-sites", "80", "-users", "8", "-days", "2", "-seed", "5",
	}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	for _, f := range []string{"trace.jsonl", "ontology.jsonl", "blocklist.hosts", "capture.pcap"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("gen did not write %s: %v", f, err)
		}
	}

	sniffed := filepath.Join(dir, "sniffed.jsonl")
	if err := cmdSniff([]string{
		"-pcap", filepath.Join(dir, "capture.pcap"), "-out", sniffed, "-stats=false",
	}); err != nil {
		t.Fatalf("sniff: %v", err)
	}
	// The observer's reconstruction must match the generated trace.
	orig, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sniffed)
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) != string(got) {
		t.Fatalf("sniffed trace differs from ground truth (%d vs %d bytes)", len(got), len(orig))
	}

	model := filepath.Join(dir, "model.bin")
	if err := cmdTrain([]string{
		"-trace", sniffed, "-blocklist", filepath.Join(dir, "blocklist.hosts"),
		"-model", model, "-dim", "12", "-epochs", "2", "-mincount", "2",
		"-sample", "-1", "-seed", "3",
	}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("train wrote no model: %v", err)
	}

	if err := cmdProfile([]string{
		"-model", model, "-ontology", filepath.Join(dir, "ontology.jsonl"),
		"-trace", sniffed, "-user", "1", "-n", "20", "-top", "3",
	}); err != nil {
		t.Fatalf("profile: %v", err)
	}

	// similar needs an in-vocabulary host: pull one from the ontology.
	ontBytes, err := os.ReadFile(filepath.Join(dir, "ontology.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(string(ontBytes), "\n", 2)[0]
	host := strings.SplitN(strings.SplitN(line, `"host":"`, 2)[1], `"`, 2)[0]
	if err := cmdSimilar([]string{"-model", model, "-host", host, "-k", "3"}); err != nil {
		// The labelled host may have been pruned by mincount; that is
		// an acceptable CLI error, not a crash.
		if !strings.Contains(err.Error(), "not in vocabulary") {
			t.Fatalf("similar: %v", err)
		}
	}

	vecs := filepath.Join(dir, "vectors.txt")
	if err := cmdExport([]string{"-model", model, "-out", vecs}); err != nil {
		t.Fatalf("export: %v", err)
	}
	data, err := os.ReadFile(vecs)
	if err != nil || len(data) == 0 {
		t.Fatalf("export produced nothing: %v", err)
	}
}

func TestCLIMissingFlags(t *testing.T) {
	if err := cmdSniff(nil); err == nil {
		t.Fatal("sniff without -pcap should fail")
	}
	if err := cmdTrain(nil); err == nil {
		t.Fatal("train without -trace should fail")
	}
	if err := cmdProfile(nil); err == nil {
		t.Fatal("profile without flags should fail")
	}
	if err := cmdSimilar(nil); err == nil {
		t.Fatal("similar without flags should fail")
	}
	if err := cmdExport(nil); err == nil {
		t.Fatal("export without -model should fail")
	}
}

// TestSniffRejectsBadCapture: a missing capture file and a file
// without the pcap magic are errors, not an empty trace.
func TestSniffRejectsBadCapture(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	if err := cmdSniff([]string{"-pcap", filepath.Join(dir, "missing.pcap"), "-out", out}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.pcap")
	if err := os.WriteFile(bad, []byte("not a pcap file at all......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSniff([]string{"-pcap", bad, "-out", out}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseChannel(t *testing.T) {
	for _, s := range []string{"tls", "quic", "dns", "mixed"} {
		if _, err := parseChannel(s); err != nil {
			t.Errorf("parseChannel(%q): %v", s, err)
		}
	}
	if _, err := parseChannel("bogus"); err == nil {
		t.Fatal("bogus channel accepted")
	}
}
