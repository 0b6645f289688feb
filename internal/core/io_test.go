package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"hostprof/internal/ontology"
)

// ioTestModel trains a tiny deterministic model for serialization tests.
func ioTestModel(t *testing.T) *Model {
	t.Helper()
	corpus := [][]string{
		{"news.example", "sport.example", "news.example"},
		{"shop.example", "pay.example", "shop.example"},
		{"news.example", "sport.example", "pay.example"},
	}
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func encodeWire(t *testing.T, wire modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := gob.NewEncoder(bw).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsWireVersionMismatch: a future (or past) format version
// must be refused with a version error, not misinterpreted.
func TestLoadRejectsWireVersionMismatch(t *testing.T) {
	raw := encodeWire(t, modelWire{
		Version: modelWireVersion + 98,
		Dim:     4,
		Hosts:   []string{"a"},
		Counts:  []int64{1},
		In:      make([]float32, 4),
		Out:     make([]float32, 4),
	})
	_, err := Load(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("Load accepted a wire version it does not understand")
	}
	if !strings.Contains(err.Error(), "unsupported model version") {
		t.Fatalf("want version error, got: %v", err)
	}
}

// TestLoadTruncatedStream: every strict prefix of a valid serialization
// must fail cleanly (no panic, no silently empty model).
func TestLoadTruncatedStream(t *testing.T) {
	m := ioTestModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("Load accepted a %d/%d-byte truncated stream", n, len(full))
		}
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	cases := []struct {
		name string
		wire modelWire
	}{
		{"zero dim", modelWire{Version: modelWireVersion, Dim: 0,
			Hosts: []string{"a"}, Counts: []int64{1}}},
		{"hosts/counts mismatch", modelWire{Version: modelWireVersion, Dim: 2,
			Hosts: []string{"a", "b"}, Counts: []int64{1},
			In: make([]float32, 4), Out: make([]float32, 4)}},
		{"short weights", modelWire{Version: modelWireVersion, Dim: 3,
			Hosts: []string{"a", "b"}, Counts: []int64{1, 1},
			In: make([]float32, 5), Out: make([]float32, 6)}},
		{"no hosts", modelWire{Version: modelWireVersion, Dim: math.MaxInt}},
		// 4·(2⁶²+1) wraps to 4 in a 64-bit int (4·(2³⁰+1) in a 32-bit
		// one): the four weights per matrix must not pass for four rows.
		{"dim overflow", dimOverflowWire()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(encodeWire(t, tc.wire))); err == nil {
				t.Fatal("Load accepted a corrupt header")
			}
		})
	}
}

// dimOverflowWire is a four-host model whose Dim times its host count
// overflows an int to the number of weights it carries.
func dimOverflowWire() modelWire {
	return modelWire{Version: modelWireVersion, Dim: 1<<(strconv.IntSize-2) + 1,
		Hosts: []string{"a", "b", "c", "d"}, Counts: []int64{1, 1, 1, 1},
		In: make([]float32, 4), Out: make([]float32, 4)}
}

// FuzzModelLoad holds the one parser of model bytes — what PUT /v1/model
// and a snapshot hand to Load — to: an error, or a model that serves.
// Its index builds, a profiler over it builds, and profiling a session
// of one of its hosts returns rather than panics.
func FuzzModelLoad(f *testing.F) {
	m, err := Train([][]string{{"a.example", "b.example", "a.example", "c.example"}}, smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		m.SimilarityIndex()
		tax := ontology.NewTaxonomy()
		ont := ontology.New(tax)
		v := tax.NewVector()
		v[0] = 1
		ont.Add(m.Vocab().Host(0), v)
		p := NewProfiler(m, ont, ProfilerConfig{N: 3})
		if _, err := p.ProfileSession([]string{m.Vocab().Host(m.Vocab().Len() - 1)}); err != nil && !errors.Is(err, ErrNoLabels) {
			t.Fatalf("profiling an in-vocabulary host: %v", err)
		}
	})
}
