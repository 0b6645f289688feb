package store

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hostprof/internal/core"
	"hostprof/internal/ontology"
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
// one shape and, element for element of both matrices, values that same
// accepts.
func assertRows(t *testing.T, m *core.Model, wire parentModelWire, same func(row float32, enc float64) bool) {
	t.Helper()
	if wire.Version != 1 || wire.Dim != m.Dim() || len(wire.Hosts) != m.Vocab().Len() || len(wire.In) != len(wire.Hosts)*wire.Dim || len(wire.Out) != len(wire.In) {
		t.Fatalf("version %d, %d hosts × %d, %d/%d weights against a %d×%d model", wire.Version, len(wire.Hosts), wire.Dim, len(wire.In), len(wire.Out), m.Vocab().Len(), m.Dim())
	}
	// The context rows have no accessor; Save writes them.
	var saved struct{ Out []float32 }
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	for id := range wire.Hosts {
		in, out := m.VectorByID(id), saved.Out[id*wire.Dim:(id+1)*wire.Dim]
		for j := range in {
			if k := id*wire.Dim + j; !same(in[j], wire.In[k]) || !same(out[j], wire.Out[k]) {
				t.Fatalf("row %d element %d: model %v / %v, encoding %v / %v", id, j, in[j], out[j], wire.In[k], wire.Out[k])
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
	assertRows(t, m, wire, func(row float32, enc float64) bool { return row == float32(enc) })
	assertServesParentProfile(t, m, core.ProfilerConfig{})
}

// TestParentWrittenSnapshotOpens: the same for a snapshot — visits,
// model and version come back. Its graph does not: it was built over
// the packing of the float64 rows, the index over the rounded rows is
// other rows, so the graph is refused with that reason and built again,
// once, as after any change of -ann-m.
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
	ann := core.ProfilerConfig{ANN: true, ANNM: 4, ANNEf: 8}
	how := core.NewProfiler(s.Model(), halfLabelled(s.Model()), ann).ANNRestore()
	if how.Rejected == nil || !strings.Contains(how.Rejected.Error(), "other rows") || !how.Built {
		t.Fatalf("the parent's graph over rounded rows: %+v, want it refused as other rows and built", how)
	}
	assertServesParentProfile(t, s.Model(), ann)
}

// TestSavedModelDecodesIntoParentStruct is the other direction, the
// rollback: what Save writes here decodes into the parent's []float64
// fields, every value the float32 row's, widened.
func TestSavedModelDecodesIntoParentStruct(t *testing.T) {
	m, _, _ := graphModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wire parentModelWire
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatalf("the parent's struct does not decode this commit's model: %v", err)
	}
	assertRows(t, m, wire, func(row float32, enc float64) bool { return float64(row) == enc })
}
