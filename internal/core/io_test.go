package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
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

func savedModel(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeWire(t testing.TB, wire modelWire) []byte {
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

// withCRC returns body followed by its CRC-32C trailer: a model file
// whose checksum holds, whatever body says.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// TestSaveWritesFlatLayout: Save's bytes are the documented layout, to
// the byte count — header, host table, counts, the central rows and the
// trailer, no context rows — and load back to the same vocabulary and
// the same bits of every central row.
func TestSaveWritesFlatLayout(t *testing.T) {
	m := ioTestModel(t)
	raw := savedModel(t, m)
	want := modelHeader + modelTrailer + m.vocab.Len()*(4+8) + len(m.in)*4
	for _, h := range m.vocab.hosts {
		want += len(h)
	}
	if len(raw) != want || string(raw[:4]) != modelMagic {
		t.Fatalf("Save wrote %d bytes starting %q, the layout is %d starting %q", len(raw), raw[:4], want, modelMagic)
	}
	back, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m.out = nil
	if weightsDigest(back) != weightsDigest(m) || back.dim != m.dim {
		t.Fatal("the loaded model is not the saved one")
	}
	if !bytes.Equal(savedModel(t, back), raw) {
		t.Fatal("saving the loaded model gives other bytes")
	}
}

// TestLoadRefusesEachLayoutCheck breaks one field of a saved model at a
// time, the checksum made to hold again, and wants the check on that
// field to refuse it with its own error.
func TestLoadRefusesEachLayoutCheck(t *testing.T) {
	raw := savedModel(t, ioTestModel(t))
	body := raw[:len(raw)-modelTrailer]
	put := func(off int, v uint32) []byte {
		b := bytes.Clone(body)
		binary.LittleEndian.PutUint32(b[off:], v)
		return withCRC(b)
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 1
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"magic only", []byte(modelMagic), errModelTruncated},
		{"flipped bit", flipped, errModelChecksum},
		{"truncated", raw[:len(raw)-1], errModelChecksum},
		{"version", put(4, modelVersion+1), errModelVersion},
		{"zero dim", put(8, 0), errModelShape},
		{"zero hosts", put(12, 0), errModelShape},
		{"hosts past the end", put(12, math.MaxUint32), errModelHosts},
		{"hostname past the end", put(modelHeader, math.MaxUint32), errModelHosts},
		{"dim off by one", put(8, 17), errModelRows},
		{"row bytes short", withCRC(body[:len(body)-4]), errModelRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLoadReadsGobModels: a model in the gob encoding earlier releases
// wrote loads, its context rows dropped.
func TestLoadReadsGobModels(t *testing.T) {
	m := ioTestModel(t)
	raw := encodeWire(t, modelWire{Version: modelWireVersion, Dim: m.dim, Hosts: m.vocab.hosts,
		Counts: m.vocab.counts, In: m.in, Out: m.out})
	back, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m.out = nil
	if weightsDigest(back) != weightsDigest(m) {
		t.Fatal("the gob model loads to other weights")
	}
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
	full := savedModel(t, ioTestModel(t))
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
// of one of its hosts returns rather than panics. An input in the flat
// layout is also loaded with its checksum made to hold, so that mutations
// reach the checks behind it.
func FuzzModelLoad(f *testing.F) {
	m, err := Train([][]string{{"a.example", "b.example", "a.example", "c.example"}}, smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	raw := savedModel(f, m)
	f.Add(raw)
	f.Add(raw[:len(raw)-modelTrailer])
	f.Add(raw[:modelHeader+4])
	f.Add(encodeWire(f, modelWire{Version: modelWireVersion, Dim: m.dim, Hosts: m.vocab.hosts,
		Counts: m.vocab.counts, In: m.in, Out: m.out}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loadServes(t, data)
		if len(data) >= modelTrailer && bytes.HasPrefix(data, []byte(modelMagic)) {
			loadServes(t, withCRC(data[:len(data)-modelTrailer]))
		}
	})
}

// loadServes loads data and, if that succeeds, serves from the model.
func loadServes(t *testing.T, data []byte) {
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
}
