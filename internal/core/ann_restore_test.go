package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"sync"
	"testing"

	"hostprof/internal/index"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// halfLabelled labels every even vocabulary ID of m with one category.
func halfLabelled(m *Model) *ontology.Ontology {
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	for id := 0; id < m.Vocab().Len(); id += 2 {
		v := tax.NewVector()
		v[id%tax.NumCategories()] = 1
		ont.Add(m.Vocab().Host(id), v)
	}
	return ont
}

// histCount returns the sample count of a histogram family, or -1 when
// it is not registered.
func histCount(reg *obs.Registry, name string) int64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Count
		}
	}
	return -1
}

// profilesHash profiles n seeded sessions and hashes every outcome bit
// for bit — errors included — so two profilers agree on all of them or
// the hashes differ.
//
// exactProfilesHash and annProfilesHash are its value, n = 2000, for the
// exact and the ANN profiler of TestANNRestoredGraphProfilesIdentically:
// the profiles a change must keep serving. Re-pinned when the model's
// rows became float32 (they were da610206… and 5bcaa838…, from commit
// 263956e): randModel's float64 draws are now rounded once, on the way
// into the model, so the rows served are other rows. They are the
// hashes commit f0fabdb — float64 rows, the code before that change —
// computes when randModel hands it the same draws already rounded to
// float32, which is the sense in which the serving path did not move.
const (
	exactProfilesHash = "25b85376df82c61eb4f7c6dc94d1e977cafbbc4975ac53ccb2965f08f91d7d21"
	annProfilesHash   = "e89a023f439e42c9def48eae362322fd23e6a74f73631e2cfa9014fa5f68d711"
)

func profilesHash(t *testing.T, p *Profiler, n int) [32]byte {
	t.Helper()
	rng := stats.NewRNG(2000)
	h := sha256.New()
	vocab := p.Model().Vocab()
	for i := 0; i < n; i++ {
		session := make([]string, 1+rng.Intn(6))
		for j := range session {
			session[j] = vocab.Host(rng.Intn(vocab.Len()))
		}
		vec, err := p.ProfileSession(session)
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		for _, x := range vec {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestANNGraphOnePerModel: the graph is a property of the model, built
// once however many profilers ask; search breadth is per profiler and
// does not fork it; another degree does.
func TestANNGraphOnePerModel(t *testing.T) {
	m := randModel(t, stats.NewRNG(606), 2000, 16)
	ont := halfLabelled(m)
	reg := obs.NewRegistry()
	p1 := NewProfiler(m, ont, ProfilerConfig{N: 20, ANN: true, ANNEf: 32, Metrics: reg})
	if how := p1.ANNRestore(); !how.Built || how.Restored || how.Rejected != nil {
		t.Fatalf("first profiler: %+v, want a build", how)
	}
	p2 := NewProfiler(m, ont, ProfilerConfig{N: 20, ANN: true, ANNEf: 48, Metrics: reg})
	if p2.ann != p1.ann || p2.ANNRestore() != (ANNRestore{}) {
		t.Fatalf("second profiler over the model did not share its graph: %+v", p2.ANNRestore())
	}
	if got := histCount(reg, "hostprof_index_ann_build_seconds"); got != 1 {
		t.Fatalf("build histogram count %d after two profilers over one model, want 1", got)
	}

	// ANNEf moved from the graph to the query; the answers did not move.
	ix := m.SimilarityIndex()
	direct := ix.BuildANN(index.ANNConfig{Ef: 32})
	rng := stats.NewRNG(607)
	for i := 0; i < 50; i++ {
		sVec, _ := p1.SessionVector([]string{m.Vocab().Host(rng.Intn(2000)), m.Vocab().Host(rng.Intn(2000))})
		got := p1.annSearch(nil, sVec, 20)
		want, _ := direct.SearchAppend(nil, sVec, 20, 0, 0, index.NoExclude)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, graph built with Ef=32 gives %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d rank %d: %v, graph built with Ef=32 gives %v", i, j, got[j], want[j])
			}
		}
	}

	p3 := NewProfiler(m, ont, ProfilerConfig{N: 20, ANN: true, ANNEf: 32, ANNM: 8})
	if p3.ann == p1.ann || !p3.ANNRestore().Built {
		t.Fatal("a profiler of another degree was handed the M=16 graph")
	}
}

// TestIndexMetricsDescribeThePackedIndex: the rows gauge is the
// vocabulary, the size gauge is the one
// packed matrix (no labelled copy beside it), the labelled-rows gauge is
// |H_L ∩ H|, and the pack-time histogram stops before the graph build,
// which has a histogram of its own.
func TestIndexMetricsDescribeThePackedIndex(t *testing.T) {
	const rows, dim = 2000, 16
	m := randModel(t, stats.NewRNG(707), rows, dim)
	reg := obs.NewRegistry()
	NewProfiler(m, halfLabelled(m), ProfilerConfig{N: 20, ANN: true, ANNEf: 32, Metrics: reg})
	if got := metricValue(t, reg, "hostprof_index_rows"); got != rows {
		t.Errorf("hostprof_index_rows = %v, want %d", got, rows)
	}
	if got := metricValue(t, reg, "hostprof_index_bytes"); got != 4*rows*dim {
		t.Errorf("hostprof_index_bytes = %v, want 4·rows·dim = %d", got, 4*rows*dim)
	}
	if got := metricValue(t, reg, "hostprof_index_labelled_rows"); got != rows/2 {
		t.Errorf("hostprof_index_labelled_rows = %v, want %d", got, rows/2)
	}
	sum := map[string]float64{}
	for _, s := range reg.Snapshot() {
		sum[s.Name] = s.Sum
	}
	if pack, graph := sum["hostprof_index_build_seconds"], sum["hostprof_index_ann_build_seconds"]; graph == 0 || pack >= graph {
		t.Errorf("index_build_seconds sum %v, ann_build_seconds sum %v: packing %d rows counted the graph build", pack, graph, rows)
	}
}

// TestANNRestoredGraphProfilesIdentically is the restart in miniature:
// the graph bytes of one Model, handed to a second Model over the same
// vectors, load instead of building — build histogram untouched — and
// 2000 seeded sessions profile to the same bits through the built
// graph, the loaded one, and one rebuilt after the bytes were refused:
// the bits the parent commit served, for the exact scan as well.
func TestANNRestoredGraphProfilesIdentically(t *testing.T) {
	m := randModel(t, stats.NewRNG(808), 2000, 16)
	ont := halfLabelled(m)
	cfg := ProfilerConfig{N: 20, ANN: true, ANNEf: 32}
	built := NewProfiler(m, ont, cfg)
	enc := m.EncodedANN()
	if len(enc) == 0 {
		t.Fatal("no encoded graph after a build")
	}
	want := profilesHash(t, built, 2000)
	if got := hex.EncodeToString(want[:]); got != annProfilesHash {
		t.Fatalf("ANN profiles hash %s, the pinned commit served %s", got, annProfilesHash)
	}
	exact := profilesHash(t, NewProfiler(m, ont, ProfilerConfig{N: 20}), 2000)
	if got := hex.EncodeToString(exact[:]); got != exactProfilesHash {
		t.Fatalf("exact profiles hash %s, the pinned commit served %s", got, exactProfilesHash)
	}

	restart := func() *Model { return &Model{vocab: m.vocab, dim: m.dim, in: m.in} }
	m2 := restart()
	m2.SetEncodedANN(enc)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	loaded := NewProfiler(m2, ont, cfg)
	if how := loaded.ANNRestore(); !how.Restored || how.Built || how.Rejected != nil || how.Rows != 2000 {
		t.Fatalf("graph bytes over the same vectors did not load: %+v", how)
	}
	if got := histCount(reg, "hostprof_index_ann_build_seconds"); got != 0 {
		t.Fatalf("build histogram count %d after a restore, want it registered at 0", got)
	}
	if m2.annEncoded != nil {
		t.Fatal("the model kept the encoded graph beside the live one")
	}
	if got := profilesHash(t, loaded, 2000); got != want {
		t.Fatal("profiles through the loaded graph differ from the built graph's")
	}
	if fb, q := metricValue(t, reg, "hostprof_index_ann_fallbacks_total"), metricValue(t, reg, "hostprof_index_ann_queries_total"); q == 0 || fb == q {
		t.Fatalf("queries=%v fallbacks=%v: the loaded graph never answered", q, fb)
	}

	// Bytes of a graph over other vectors are refused and cost a build.
	other := randModel(t, stats.NewRNG(809), 2000, 16)
	NewProfiler(other, ont, cfg)
	m3 := restart()
	m3.SetEncodedANN(other.EncodedANN())
	rebuilt := NewProfiler(m3, ont, cfg)
	how := rebuilt.ANNRestore()
	if how.Rejected == nil || !strings.Contains(how.Rejected.Error(), "other rows") || !how.Built {
		t.Fatalf("another model's graph: %+v, want a rejection and a build", how)
	}
	if got := profilesHash(t, rebuilt, 2000); got != want {
		t.Fatal("profiles through the rebuilt graph differ from the built graph's")
	}

	// A graphless profiler has no use for the bytes and drops them.
	m4 := restart()
	m4.SetEncodedANN(enc)
	NewProfiler(m4, ont, ProfilerConfig{N: 20})
	if m4.EncodedANN() != nil {
		t.Fatal("a graphless profiler left the encoded graph on the model")
	}
}

// TestANNGraphConcurrentProfilers: profilers built over one model from
// several goroutines, while a snapshot encodes its graph, end up sharing
// one graph that exactly one of them built.
func TestANNGraphConcurrentProfilers(t *testing.T) {
	m := randModel(t, stats.NewRNG(909), 600, 8)
	ont := halfLabelled(m)
	const n = 8
	ps := make([]*Profiler, n)
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps[i] = NewProfiler(m, ont, ProfilerConfig{N: 10, ANN: true, ANNEf: 8 + i})
			m.EncodedANN()
		}()
	}
	wg.Wait()
	built := 0
	for _, p := range ps {
		if p.ann != ps[0].ann {
			t.Fatal("concurrent profilers over one model hold different graphs")
		}
		if p.ANNRestore().Built {
			built++
		}
	}
	if built != 1 {
		t.Fatalf("%d of %d concurrent profilers built the graph, want 1", built, n)
	}
}
