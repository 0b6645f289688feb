package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hostprof/internal/core"
	"hostprof/internal/index"
	"hostprof/internal/ontology"
	"hostprof/internal/trace"
)

// The fixtures under testdata/ were written by commit f0fabdb, the last
// one whose models held float64 rows: parent_f0fabdb_model.gob is a
// Model.Save artifact and parent_f0fabdb_snapshot.gob a store snapshot
// carrying the same model, six visits and the model's M=4 HNSW graph.
// testdata/parent_fixtures_gen.go.txt is the program that wrote them and
// says how to run it in a checkout of that commit; it also printed the
// constants below.
const (
	parentModelVersion = "c58268988a4699f8"
	parentSession      = "h1.example h4.example h9.example"
)

// parentProfile is what f0fabdb served for parentSession at N=5 over
// halfLabelled's ontology, from float64 rows.
var parentProfile = map[int]float64{0: 0.401051407, 4: 0.298957827, 6: 0.299990766}

// parentModelWire is core's model encoding as f0fabdb declared it.
type parentModelWire struct {
	Version int
	Dim     int
	Hosts   []string
	Counts  []int64
	In, Out []float64
}

func halfLabelled(m *core.Model) *ontology.Ontology {
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	for id := 0; id < m.Vocab().Len(); id += 2 {
		v := tax.NewVector()
		v[id%tax.NumCategories()] = 1
		ont.Add(m.Vocab().Host(id), v)
	}
	return ont
}

// assertRows wants m and the parent-shaped decoding of a model to have
// one shape and, element for element of the central rows, the parent's
// value rounded to float32. The parent's context rows are not loaded:
// nothing reads them after training.
func assertRows(t *testing.T, m *core.Model, wire parentModelWire) {
	t.Helper()
	if wire.Version != 1 || wire.Dim != m.Dim() || len(wire.Hosts) != m.Vocab().Len() || len(wire.In) != len(wire.Hosts)*wire.Dim {
		t.Fatalf("version %d, %d hosts × %d, %d weights against a %d×%d model", wire.Version, len(wire.Hosts), wire.Dim, len(wire.In), m.Vocab().Len(), m.Dim())
	}
	for id := range wire.Hosts {
		in := m.VectorByID(id)
		for j := range in {
			if k := id*wire.Dim + j; in[j] != float32(wire.In[k]) {
				t.Fatalf("row %d element %d: model %v, encoding %v", id, j, in[j], wire.In[k])
			}
		}
	}
}

// assertServesParentProfile profiles parentSession over m and wants the
// parent's answer: the same categories, each weight within 1e-5 — the
// rows were rounded to float32 (relative 6e-8) on the way in, and a
// cosine moved that little moves a weight of Equation (4) no further.
func assertServesParentProfile(t *testing.T, m *core.Model, cfg core.ProfilerConfig) {
	t.Helper()
	cfg.N = 5
	got, err := core.NewProfiler(m, halfLabelled(m), cfg).ProfileSession(strings.Fields(parentSession))
	if err != nil {
		t.Fatal(err)
	}
	for c, w := range got {
		if math.Abs(w-parentProfile[c]) > 1e-5 {
			t.Errorf("category %d: weight %.9f, the parent served %.9f", c, w, parentProfile[c])
		}
	}
}

// TestParentWrittenArtifactLoads: a model artifact written before the
// rows became float32 installs here under the version the parent gave it
// — the hash of the unchanged bytes — holds the parent's values rounded
// to float32, and serves the parent's profile.
func TestParentWrittenArtifactLoads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_f0fabdb_model.gob"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("the parent's artifact does not load: %v", err)
	}
	s := mustOpen(t, Config{})
	s.InstallModel(m, data)
	if got := s.ModelVersion(); got != parentModelVersion {
		t.Fatalf("ModelVersion = %s, the parent advertised %s", got, parentModelVersion)
	}
	var wire parentModelWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	assertRows(t, m, wire)
	assertServesParentProfile(t, m, core.ProfilerConfig{})
}

// TestParentWrittenSnapshotOpens: the same for a snapshot — visits,
// model and version come back. Its graph does not: it was built over
// the packing of the float64 rows, the index over the rounded rows is
// other rows, so index's loader refuses the graph with that reason. An
// -ann profiler never asks for it: 60 rows are below max(ef, N)·2M, so
// it serves exactly and drops the bytes.
func TestParentWrittenSnapshotOpens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_f0fabdb_snapshot.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(snapPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Dir: dir})
	if rec := s.Recovery(); !rec.ModelRestored || rec.SnapshotVisits != 6 || rec.SkippedSnapshots != 0 {
		t.Fatalf("the parent's snapshot: recovery = %+v", rec)
	}
	if got := s.ModelVersion(); got != parentModelVersion {
		t.Fatalf("ModelVersion = %s, the parent advertised %s", got, parentModelVersion)
	}
	if got := s.Session(1, 100, 1000); len(got) != 3 {
		t.Fatalf("user 1's session after recovery: %v", got)
	}
	graph := s.Model().EncodedANN()
	if _, err := s.Model().SimilarityIndex().LoadANN(graph, index.ANNConfig{M: 4}); err == nil || !strings.Contains(err.Error(), "other rows") {
		t.Fatalf("the parent's graph (%d bytes) over rounded rows: %v, want it refused as other rows", len(graph), err)
	}
	ann := core.ProfilerConfig{ANN: true, ANNM: 4, ANNEf: 8}
	assertSkipsGraph(t, s.Model(), ann)
	assertServesParentProfile(t, s.Model(), ann)
}

// assertSkipsGraph wants an -ann profiler under cfg over m, whose rows
// are at most max(ef, N)·2M, to build and load no graph and to leave no
// graph bytes on m for the next snapshot.
func assertSkipsGraph(t *testing.T, m *core.Model, cfg core.ProfilerConfig) {
	t.Helper()
	if how := core.NewProfiler(m, halfLabelled(m), cfg).ANNRestore(); !how.Skipped || how.Built || how.Restored || how.Rows != m.Vocab().Len() {
		t.Fatalf("an -ann profiler over %d rows: %+v, want the graph skipped", m.Vocab().Len(), how)
	}
	if m.EncodedANN() != nil {
		t.Fatal("a graphless -ann profiler left the snapshot's graph bytes on the model")
	}
}

// TestSavedModelDecodesIntoParentStruct is the rollback, a refusal:
// what Save writes here is not gob, so neither release that read models
// with gob — float64 rows or float32 — decodes it, and a shard of such a
// release answers 400 to it on PUT /v1/model instead of loading a
// misread model.
func TestSavedModelDecodesIntoParentStruct(t *testing.T) {
	m, _, _ := graphModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&parentModelWire{}); err == nil {
		t.Fatal("the float64 release's struct decodes this commit's model")
	}
	var float32Wire struct {
		Version int
		Dim     int
		Hosts   []string
		Counts  []int64
		In, Out []float32
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&float32Wire); err == nil {
		t.Fatal("the float32 gob release's struct decodes this commit's model")
	}
}

// The gob snapshot parent_d5c9674_snapshot.gob was written by d5c9674,
// the last release whose snapshots were gob, over float32 rows:
// testdata/parent_d5c9674_fixtures_gen.go.txt is its program, which
// printed the version below.
const parentGraphModelVersion = "848267ceae7a38ca"

// parentGraphVisits are the visits that program stored: nine users,
// twelve visits each, user 3's last one a late report.
func parentGraphVisits() []trace.Visit {
	var vs []trace.Visit
	for i := 0; i < 108; i++ {
		v := trace.Visit{User: i % 9, Time: int64(100 * i), Host: fmt.Sprintf("h%d.example", i%17)}
		if i == 102 {
			v.Time = 5
		}
		vs = append(vs, v)
	}
	return vs
}

// TestParentGobSnapshotWithGraphOpens: a gob snapshot with a graph opens
// here with its visits, its model under the parent's version and its
// graph, which index's loader restores; the next Snapshot rewrites it in
// the flat layout, which opens to the same store, model bytes and graph.
// The 60-row model is below max(ef, N)·2M, so an -ann profiler over the
// last generation serves it exactly and drops the graph's bytes.
func TestParentGobSnapshotWithGraphOpens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent_d5c9674_snapshot.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(snapPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := mustOpen(t, Config{})
	appendAll(t, ref, parentGraphVisits())
	ann := core.ProfilerConfig{N: 5, ANN: true, ANNM: 4, ANNEf: 8}
	for gen := 0; gen < 2; gen++ {
		s := mustOpen(t, Config{Dir: dir})
		if rec := s.Recovery(); !rec.ModelRestored || rec.SnapshotVisits != 108 || rec.SkippedSnapshots != 0 {
			t.Fatalf("generation %d: recovery = %+v", gen, rec)
		}
		if got := s.ModelVersion(); got != parentGraphModelVersion {
			t.Fatalf("generation %d: ModelVersion = %s, the parent advertised %s", gen, got, parentGraphModelVersion)
		}
		assertSameReads(t, s, ref)
		graph, err := s.Model().SimilarityIndex().LoadANN(s.Model().EncodedANN(), index.ANNConfig{M: 4})
		if err != nil || graph.Stats().GraphRows != s.Model().Vocab().Len() {
			t.Fatalf("generation %d: the graph was not restored: %v", gen, err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.gob"))
		if len(snaps) != 1 {
			t.Fatalf("snapshots after generation %d: %v", gen, snaps)
		}
		if data, err = os.ReadFile(snaps[0]); err != nil || !bytes.HasPrefix(data, []byte(snapshotMagic)) {
			t.Fatalf("generation %d's snapshot is not in the flat layout (%v)", gen, err)
		}
	}
	assertSkipsGraph(t, mustOpen(t, Config{Dir: dir}).Model(), ann)
}
