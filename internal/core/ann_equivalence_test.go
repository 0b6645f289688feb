package core

import (
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"hostprof/internal/index"
	"hostprof/internal/obs"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// metricValue reads one counter/gauge family value off a registry
// snapshot, summing across label sets.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	total, found := 0.0, false
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			total += m.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("metric %s not registered", name)
	}
	return total
}

// TestANNSmallVocabFallsBackIdentical pins the small-vocabulary rule end
// to end: a vocabulary of at most max(ef, N)·2M rows gets no graph —
// none built, none loaded from the bytes a snapshot carried, none left
// for the next snapshot — and the ANN profiler answers exactly like the
// exact one, bit for bit, with the ann families registered at 0 and the
// recall estimate at 1. Above the rule, a query the graph cannot answer
// (k reaching the graph's size) still falls back to the exact scan and
// is counted as one.
func TestANNSmallVocabFallsBackIdentical(t *testing.T) {
	fx := newProfilingFixture(t, 0.5) // vocab 24 « 128·2·16
	fx.model.SetEncodedANN(fx.model.SimilarityIndex().BuildANN(index.ANNConfig{}).AppendBinary(nil))
	reg := obs.NewRegistry()
	annP := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20, ANN: true, Metrics: reg})
	exactP := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20})
	want := ANNRestore{Skipped: true, Rows: fx.model.Vocab().Len(), Threshold: 128 * 2 * 16}
	if annP.ann != nil || annP.ANNRestore() != want {
		t.Fatalf("ANN profiler over %d rows: graph %v, %+v; want none, %+v", want.Rows, annP.ann != nil, annP.ANNRestore(), want)
	}
	if fx.model.EncodedANN() != nil {
		t.Fatal("a graphless ANN profiler left the snapshot's graph bytes on the model")
	}

	sessions := [][]string{fx.ta[:4], fx.tb[:4], {fx.ta[0], fx.tb[0]}}
	for i, s := range sessions {
		a, errA := annP.ProfileSession(s)
		b, errB := exactP.ProfileSession(s)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("session %d: ann err %v, exact err %v", i, errA, errB)
		}
		if !vectorsBitEqual(a, b) {
			t.Fatalf("session %d: ann profile differs from exact below the graph threshold", i)
		}
	}
	if got := histCount(reg, "hostprof_index_ann_build_seconds"); got != 0 {
		t.Fatalf("build histogram count %d without a graph, want it registered at 0", got)
	}
	queries := metricValue(t, reg, "hostprof_index_ann_queries_total")
	fallbacks := metricValue(t, reg, "hostprof_index_ann_fallbacks_total")
	if queries != 0 || fallbacks != 0 {
		t.Fatalf("queries=%v fallbacks=%v without a graph; the exact pass answers, want 0 and 0", queries, fallbacks)
	}
	if est := metricValue(t, reg, "hostprof_index_ann_recall_estimate"); est != 1 {
		t.Fatalf("recall estimate %v without a graph, want 1", est)
	}

	// The pinned exact profiles, served by an ANN profiler whose 2000
	// rows are below the default threshold.
	m := randModel(t, stats.NewRNG(808), 2000, 16)
	below := NewProfiler(m, halfLabelled(m), ProfilerConfig{N: 20, ANN: true})
	if got := profilesHash(t, below, 2000); hex.EncodeToString(got[:]) != exactProfilesHash {
		t.Fatalf("ANN profiler below the threshold: profiles hash %x, the exact profiler serves %s", got, exactProfilesHash)
	}

	// Above it (ef 32: 1 024 < 2 000 rows) the graph serves, and a query
	// for every row falls back to the exact scan.
	reg = obs.NewRegistry()
	above := NewProfiler(m, halfLabelled(m), ProfilerConfig{N: 20, ANN: true, ANNEf: 32, Metrics: reg})
	if above.ann == nil {
		t.Fatalf("no graph over 2000 rows at ef 32: %+v", above.ANNRestore())
	}
	q := stats.Widen(m.VectorByID(7))
	got := above.annSearch(nil, q, 2000)
	exact := above.idx.SearchAppend(nil, q, 2000, 0, index.NoExclude)
	if !slices.Equal(got, exact) {
		t.Fatal("a query for every row did not answer like the exact scan")
	}
	if queries, fallbacks := metricValue(t, reg, "hostprof_index_ann_queries_total"), metricValue(t, reg, "hostprof_index_ann_fallbacks_total"); queries != 1 || fallbacks != 1 {
		t.Fatalf("queries=%v fallbacks=%v after one query for every row, want 1 and 1", queries, fallbacks)
	}
}

// TestANNSampledQueriesCounted pins the recall estimate's denominator:
// every 64th graph-answered query, from the first, is re-run exactly,
// so after Q of them sampled = ⌈Q/64⌉ and queries_total = Q.
func TestANNSampledQueriesCounted(t *testing.T) {
	m := randModel(t, stats.NewRNG(808), 2000, 16)
	reg := obs.NewRegistry()
	p := NewProfiler(m, halfLabelled(m), ProfilerConfig{N: 20, ANN: true, ANNEf: 32, Metrics: reg})
	for q := 1; q <= 130; q++ {
		p.annSearch(nil, stats.Widen(m.VectorByID(q)), 10)
		queries := metricValue(t, reg, "hostprof_index_ann_queries_total")
		sampled := metricValue(t, reg, "hostprof_index_ann_sampled_queries_total")
		if queries != float64(q) || sampled != float64((q+63)/64) {
			t.Fatalf("after %d graph-answered queries: queries_total %v, sampled %v; want %d and %d",
				q, queries, sampled, q, (q+63)/64)
		}
	}
	if fb := metricValue(t, reg, "hostprof_index_ann_fallbacks_total"); fb != 0 {
		t.Fatalf("%v queries fell back; every one must be graph-answered", fb)
	}
}

// TestANNSelfExclusionTrainedModel checks the exclusion semantics over
// a trained model's index: an ANN query for a host's own vector with
// that host excluded never returns it, under both the graph and the
// fallback, matching the exact index.
func TestANNSelfExclusionTrainedModel(t *testing.T) {
	rng := stats.NewRNG(505)
	m := randModel(t, rng, 1200, 12)
	ix := m.SimilarityIndex()
	ann := ix.BuildANN(index.ANNConfig{Ef: 24})
	for _, id := range []int32{0, 3, 599, 1199} {
		q := stats.Widen(m.VectorByID(int(id)))
		got, _ := ann.SearchAppend(nil, q, 8, 0, 1, id)
		exact := ix.SearchAppend(nil, q, 8, 1, id)
		for _, r := range got {
			if r.ID == id {
				t.Fatalf("excluded ID %d present in ANN results", id)
			}
		}
		for _, r := range exact {
			if r.ID == id {
				t.Fatalf("excluded ID %d present in exact results", id)
			}
		}
		// Unexcluded, both paths put the host itself first.
		top, _ := ann.SearchAppend(nil, q, 1, 0, 1, index.NoExclude)
		if len(top) != 1 || top[0].ID != id {
			t.Fatalf("ANN top hit for host %d's own vector: %v", id, top)
		}
	}
}

// TestANNErrNoLabelsIdentical pins that both failure modes of Eq. (4)
// surface as ErrNoLabels identically with and without the ANN layer.
func TestANNErrNoLabelsIdentical(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	empty := ontology.New(fx.tax)
	for _, tc := range []struct {
		name string
		ont  *ontology.Ontology
	}{{"labelled", fx.ont}, {"empty-ontology", empty}} {
		annP := NewProfiler(fx.model, tc.ont, ProfilerConfig{N: 10, ANN: true})
		exactP := NewProfiler(fx.model, tc.ont, ProfilerConfig{N: 10})
		for _, session := range [][]string{
			{"nope-1.example", "nope-2.example"},
			fx.ta[:3],
			nil,
		} {
			_, errA := annP.ProfileSession(session)
			_, errB := exactP.ProfileSession(session)
			if !errors.Is(errA, errB) && !errors.Is(errB, errA) {
				t.Fatalf("%s session %v: ann err %v, exact err %v", tc.name, session, errA, errB)
			}
		}
	}
}

// TestANNRecallTrainedModel is the trained-vector half of the recall
// harness: embeddings learned from a topical corpus, queried with
// session vectors, must meet the same recall@10 >= 0.95 bar at the
// default search breadth.
func TestANNRecallTrainedModel(t *testing.T) {
	rng := stats.NewRNG(2027)
	corpus, ta, tb := topicCorpus(rng, 1000, 4000, 12)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Vocab().Len() < 1500 {
		t.Fatalf("corpus produced vocab %d; the graph would fall back", m.Vocab().Len())
	}
	ix := m.SimilarityIndex()
	ann := ix.BuildANN(index.ANNConfig{})

	p := NewProfiler(m, ontology.New(ontology.NewTaxonomy()), ProfilerConfig{N: 10})
	hits, want, fallbacks := 0, 0, 0
	const queries, k = 60, 10
	for qi := 0; qi < queries; qi++ {
		pool := ta
		if qi%2 == 1 {
			pool = tb
		}
		session := make([]string, 6)
		for j := range session {
			session[j] = pool[rng.Intn(len(pool))]
		}
		sVec, inVocab := p.SessionVector(session)
		if inVocab == 0 {
			continue
		}
		exact := ix.SearchAppend(nil, sVec, k, 0, index.NoExclude)
		approx, fb := ann.SearchAppend(nil, sVec, k, 0, 0, index.NoExclude)
		if fb {
			fallbacks++
		}
		hits += index.RecallHits(exact, approx)
		want += len(exact)
	}
	recall := float64(hits) / float64(want)
	t.Logf("trained-model recall@%d = %.4f (%d fallbacks / %d queries)", k, recall, fallbacks, queries)
	if recall < 0.95 {
		t.Fatalf("trained-model recall@%d = %.4f, gate requires >= 0.95", k, recall)
	}
	if fallbacks == queries {
		t.Fatal("every trained-model query fell back; the graph was never exercised")
	}
}
