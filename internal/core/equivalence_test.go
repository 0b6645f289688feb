package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// rankCosTol is the documented equivalence tolerance between the serial
// float64 scan and the packed float32 index. Packing a unit vector to
// float32 and taking a float32 dot product perturbs each cosine by at
// most about (d+2)·2⁻²⁴ (< 4e-6 at the d ≤ 48 exercised here); 5e-5
// leaves slack for the index's reassociated four-wide summation. Ranks
// must agree exactly except between candidates whose serial cosines
// differ by no more than this bound — where either order answers
// Eq. (3) equally well.
const rankCosTol = 5e-5

// randModel builds a frozen model over vocab random embeddings, zeroing
// the rows listed in zeroRows.
func randModel(t testing.TB, rng *stats.RNG, vocab, dim int, zeroRows ...int) *Model {
	t.Helper()
	hosts := make([]string, vocab)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%04d.example", i)
	}
	in := make([]float64, vocab*dim)
	for i := range in {
		in[i] = rng.Float64()*2 - 1
	}
	for _, r := range zeroRows {
		for i := 0; i < dim; i++ {
			in[r*dim+i] = 0
		}
	}
	m, err := NewModelFromVectors(hosts, dim, in)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// assertIndexMatchesSerial compares the packed index's top-k against the
// serial float64 ranking of the whole vocabulary: lengths must match,
// every rank must carry the same ID — except where the serial cosines
// are within rankCosTol, i.e. a tolerated float32 tie — and returned
// scores must sit within the tolerance of their serial values.
func assertIndexMatchesSerial(t *testing.T, m *Model, query []float64, k int) {
	t.Helper()
	ref := refNearestToVector(m, query, m.Vocab().Len())
	got := m.SimilarityIndex().Search(query, k)

	wantLen := k
	if wantLen > len(ref) {
		wantLen = len(ref)
	}
	if ref == nil {
		// Zero query (or empty model): both paths must return nothing.
		if got != nil {
			t.Fatalf("serial scan returned nil, index returned %d results", len(got))
		}
		return
	}
	if len(got) != wantLen {
		t.Fatalf("index returned %d results, want %d (vocab %d, k %d)", len(got), wantLen, m.Vocab().Len(), k)
	}
	serialCos := make(map[int]float64, len(ref))
	for _, n := range ref {
		serialCos[n.ID] = n.Cosine
	}
	for i, r := range got {
		cos, ok := serialCos[int(r.ID)]
		if !ok {
			t.Fatalf("rank %d: index ID %d missing from serial ranking", i, r.ID)
		}
		if d := math.Abs(float64(r.Score) - cos); d > rankCosTol {
			t.Fatalf("rank %d: index cosine %g vs serial %g for ID %d, diff %g > %g",
				i, r.Score, cos, r.ID, d, rankCosTol)
		}
		if int(r.ID) == ref[i].ID {
			continue
		}
		if d := math.Abs(cos - ref[i].Cosine); d > rankCosTol {
			t.Fatalf("rank %d: index ID %d (serial cos %g) vs serial ID %d (cos %g), diff %g > %g",
				i, r.ID, cos, ref[i].ID, ref[i].Cosine, d, rankCosTol)
		}
	}
}

// TestIndexSerialEquivalenceQuick drives random models through both
// scan paths: random dimensionality, vocabulary size and k (sometimes
// k ≥ vocab), with occasional zero rows and zero queries.
func TestIndexSerialEquivalenceQuick(t *testing.T) {
	property := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		vocab := 3 + rng.Intn(198)
		dim := 1 + rng.Intn(48)
		var zeroRows []int
		for r := 0; r < vocab; r++ {
			if rng.Float64() < 0.05 {
				zeroRows = append(zeroRows, r)
			}
		}
		m := randModel(t, rng, vocab, dim, zeroRows...)

		query := make([]float64, dim)
		if rng.Float64() >= 0.05 { // 5% of trials keep the zero query
			for i := range query {
				query[i] = rng.Float64()*2 - 1
			}
		}
		k := 1 + rng.Intn(vocab+10) // sometimes k > vocab
		assertIndexMatchesSerial(t, m, query, k)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSerialEquivalenceTable(t *testing.T) {
	rng := stats.NewRNG(2026)
	for _, tc := range []struct {
		name       string
		vocab, dim int
		k          int
		zeroRows   []int
		zeroQuery  bool
		zeroModel  bool
	}{
		{name: "k beyond vocab", vocab: 7, dim: 5, k: 50},
		{name: "k zero", vocab: 7, dim: 5, k: 0},
		{name: "single host", vocab: 1, dim: 3, k: 1},
		{name: "single dim", vocab: 20, dim: 1, k: 5},
		{name: "zero query", vocab: 20, dim: 4, k: 5, zeroQuery: true},
		{name: "all-zero model", vocab: 16, dim: 6, k: 8, zeroModel: true},
		{name: "sprinkled zero rows", vocab: 40, dim: 9, k: 40, zeroRows: []int{0, 13, 39}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			zero := tc.zeroRows
			if tc.zeroModel {
				zero = zero[:0]
				for r := 0; r < tc.vocab; r++ {
					zero = append(zero, r)
				}
			}
			m := randModel(t, rng, tc.vocab, tc.dim, zero...)
			query := make([]float64, tc.dim)
			if !tc.zeroQuery {
				for i := range query {
					query[i] = rng.Float64()*2 - 1
				}
			}
			assertIndexMatchesSerial(t, m, query, tc.k)
		})
	}
}

// TestIndexSerialTieBreak plants exact duplicate vectors: both paths
// must order the resulting exact ties by ascending vocabulary ID, so
// the comparison is bit-for-bit, not merely within tolerance.
func TestIndexSerialTieBreak(t *testing.T) {
	rng := stats.NewRNG(77)
	dim := 6
	m := randModel(t, rng, 15, dim)
	for _, dup := range []int{4, 9, 14} {
		copy(m.in[dup*dim:(dup+1)*dim], m.in[1*dim:2*dim])
	}
	query := stats.Widen(m.in[1*dim : 2*dim])

	ref := refNearestToVector(m, query, 4)
	got := m.SimilarityIndex().Search(query, 4)
	wantIDs := []int{1, 4, 9, 14}
	for i, id := range wantIDs {
		if ref[i].ID != id {
			t.Fatalf("serial rank %d: ID %d, want %d (tie-break by ascending ID)", i, ref[i].ID, id)
		}
		if int(got[i].ID) != id {
			t.Fatalf("index rank %d: ID %d, want %d (tie-break by ascending ID)", i, got[i].ID, id)
		}
	}
}

// TestProfileIndexedMatchesSerial profiles real trained-model sessions
// through the packed index and through the dense oracle over the serial
// float64 scan; the resulting category vectors must agree to within the
// neighbourhood tolerance.
func TestProfileIndexedMatchesSerial(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	indexed := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20})
	sessions := [][]string{
		fx.ta[:4],
		fx.tb[len(fx.tb)-4:],
		{fx.ta[0], fx.tb[0]},
	}
	for i, s := range sessions {
		a, errA := indexed.ProfileSession(s)
		b, errB := profileSessionDense(indexed, s, true)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("session %d: indexed err %v, serial err %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !vectorsWithin(a, b, profileTol) {
			t.Fatalf("session %d: indexed %v vs serial %v", i, a, b)
		}
	}
}

// profileTol bounds how far a category may move between a profile from
// the packed float32 index and one from the serial float64 scan: the
// cosines differ by at most rankCosTol, and so may who holds the last
// ranks of the neighbourhood.
const profileTol = 1e-4

// vectorsWithin reports whether two category vectors agree to within tol
// in every category.
func vectorsWithin(a, b ontology.Vector, tol float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for c := range a {
		if math.Abs(a[c]-b[c]) > tol {
			return false
		}
	}
	return true
}

// vectorsBitEqual compares two category vectors bit for bit: Eq. 4 folds
// its contributions in a fixed order, so identical input on one model
// gives identical float64s whichever path computed them.
func vectorsBitEqual(a, b ontology.Vector) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for c := range a {
		if math.Float64bits(a[c]) != math.Float64bits(b[c]) {
			return false
		}
	}
	return true
}

// TestProfileBatchMatchesSequential pins ProfileSessions to the
// per-session outputs of ProfileSession, errors included, in input
// order. 37 sessions span several groups at any GOMAXPROCS; empty,
// all-unknown, repeated and duplicate sessions sit among them. Two
// worlds cover both kernel widths (dim 16 takes the four-query kernel,
// dim 13 the per-query fallback), under exact and ANN profilers.
func TestProfileBatchMatchesSequential(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	rng := stats.NewRNG(37)
	wide := randModel(t, rng, 400, 13)
	wideOnt := ontology.New(fx.tax)
	for id := 0; id < 400; id += 2 {
		v := fx.tax.NewVector()
		v[id%5] = 1
		wideOnt.Add(wide.Vocab().Host(id), v)
	}
	worlds := map[string]struct {
		m   *Model
		ont *ontology.Ontology
	}{"trained dim 16": {fx.model, fx.ont}, "random dim 13": {wide, wideOnt}}
	configs := map[string]ProfilerConfig{
		"exact":          {N: 20},
		"exact idf, dup": {N: 20, Agg: AggIDF, SkipDedup: true},
		"ann":            {N: 20, ANN: true, ANNEf: 8},
	}
	for wname, w := range worlds {
		vocab := w.m.Vocab().Len()
		sessions := make([][]string, 37)
		for i := range sessions {
			switch {
			case i%9 == 2:
				sessions[i] = nil // ErrEmptySession
			case i%9 == 5:
				sessions[i] = []string{"never-seen.example", "nor-this.example"} // ErrNoLabels
			case i%9 == 7:
				sessions[i] = sessions[i-3] // the same session twice in one batch
			default:
				n := 1 + rng.Intn(6)
				for j := 0; j < n; j++ {
					sessions[i] = append(sessions[i], w.m.Vocab().Host(rng.Intn(vocab)))
				}
				sessions[i] = append(sessions[i], sessions[i][0], "unknown.example") // a repeat, an unknown
			}
		}
		for cname, cfg := range configs {
			p := NewProfiler(w.m, w.ont, cfg)
			vecs, errs := p.ProfileSessions(context.Background(), sessions)
			if len(vecs) != len(sessions) || len(errs) != len(sessions) {
				t.Fatalf("%s, %s: batch sizes %d/%d, want %d", wname, cname, len(vecs), len(errs), len(sessions))
			}
			for i, s := range sessions {
				want, wantErr := p.ProfileSession(s)
				if !errors.Is(errs[i], wantErr) && !errors.Is(wantErr, errs[i]) {
					t.Fatalf("%s, %s, session %d: batch err %v, sequential err %v", wname, cname, i, errs[i], wantErr)
				}
				if !vectorsBitEqual(vecs[i], want) {
					t.Fatalf("%s, %s, session %d: batch profile differs from sequential", wname, cname, i)
				}
			}
		}
	}
}

// TestProfileBatchTraceSpanPerGroup pins the batch's trace shape: a
// sampled 512-session ProfileSessions records one profile.index span
// per group of sessions, not one per session, and the spans' queries
// attributes add up to the batch.
func TestProfileBatchTraceSpanPerGroup(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	tr := tracer.New(tracer.Config{SampleRate: 1, Seed: 7})
	reg := obs.NewRegistry()
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20, Tracer: tr, Metrics: reg})
	sessions := make([][]string, 512)
	for i := range sessions {
		sessions[i] = []string{fx.ta[i%len(fx.ta)], fx.tb[(i/3)%len(fx.tb)]}
	}
	ctx, root := tr.StartSpan(context.Background(), "request")
	p.ProfileSessions(ctx, sessions)
	root.End()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	size := groupSize(len(sessions), runtime.GOMAXPROCS(0))
	groups := (len(sessions) + size - 1) / size
	spans, queries := 0, 0
	for _, sd := range traces[0].Spans {
		if sd.Name != "profile.index" {
			continue
		}
		spans++
		for _, a := range sd.Attrs {
			if a.Key == "queries" {
				n, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatalf("queries attribute %q: %v", a.Value, err)
				}
				queries += n
			}
		}
	}
	if spans == 0 || spans > groups {
		t.Fatalf("%d profile.index spans for %d sessions in groups of %d, want 1..%d", spans, len(sessions), size, groups)
	}
	if queries != len(sessions) {
		t.Fatalf("profile.index spans count %d queries, want %d", queries, len(sessions))
	}
	// A shared pass still observes once per query.
	if got := reg.Histogram("hostprof_index_query_seconds", nil).Count(); got != int64(len(sessions)) {
		t.Fatalf("hostprof_index_query_seconds_count = %d, want %d", got, len(sessions))
	}
}

// TestSessionKeyCanonical pins the cache-key contract: order and repeat
// insensitivity (under dedup), sensitivity to the influencing host set,
// inclusion of out-of-vocabulary labelled hosts, and the uncacheable
// empty key for sessions no host of which can influence the profile.
func TestSessionKeyCanonical(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	v := fx.tax.NewVector()
	v[3] = 1
	fx.ont.Add("oov-labelled.example", v)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5})

	a, b := fx.ta[0], fx.ta[1]
	k1 := p.SessionKey([]string{a, b, "unknown.example"})
	k2 := p.SessionKey([]string{b, "unknown.example", a, a})
	if k1 == "" || k1 != k2 {
		t.Fatalf("keys differ under permutation/dup/unknown noise: %q vs %q", k1, k2)
	}
	if k3 := p.SessionKey([]string{a}); k3 == k1 {
		t.Fatal("dropping an influencing host must change the key")
	}
	// An out-of-vocab labelled host influences the profile (alpha = 1)
	// and must therefore be part of the key.
	if p.SessionKey([]string{a, "oov-labelled.example"}) == p.SessionKey([]string{a}) {
		t.Fatal("out-of-vocabulary labelled host missing from the key")
	}
	if k := p.SessionKey([]string{"unknown.example"}); k != "" {
		t.Fatalf("all-unknown session key %q, want empty (uncacheable)", k)
	}
	// With SkipDedup, multiplicity shifts the session vector, so the
	// key must distinguish repeat counts.
	pd := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5, SkipDedup: true})
	if pd.SessionKey([]string{a, a, b}) == pd.SessionKey([]string{a, b}) {
		t.Fatal("SkipDedup keys must track host multiplicity")
	}
}

// TestProfileSessionErrNoLabelsPinned pins ErrNoLabels for both ways a
// session can fail Eq. (4)'s denominator: every host unknown to model
// and ontology, and an in-vocabulary session whose neighbourhood holds
// no labelled host (empty ontology).
func TestProfileSessionErrNoLabelsPinned(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 10})
	if _, err := p.ProfileSession([]string{"nope-1.example", "nope-2.example"}); !errors.Is(err, ErrNoLabels) {
		t.Fatalf("all-unknown session: err = %v, want ErrNoLabels", err)
	}
	empty := ontology.New(fx.tax)
	pu := NewProfiler(fx.model, empty, ProfilerConfig{N: 10})
	if _, err := pu.ProfileSession(fx.ta[:3]); !errors.Is(err, ErrNoLabels) {
		t.Fatalf("unlabelled neighbourhood: err = %v, want ErrNoLabels", err)
	}
}

// NewModelFromVectors assembles a frozen Model directly from a host list
// and a row-major central-embedding matrix of len(hosts)×dim, for tests
// that need a model without running training. The matrix is rounded to
// float32, the model's representation. Hosts must be unique; each gets a
// uniform count of 1 and the context matrix is left empty.
func NewModelFromVectors(hosts []string, dim int, in []float64) (*Model, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("core: non-positive dimensionality %d", dim)
	}
	if len(in) != len(hosts)*dim {
		return nil, fmt.Errorf("core: matrix length %d != %d hosts x dim %d", len(in), len(hosts), dim)
	}
	v := &Vocab{
		hosts:  append([]string(nil), hosts...),
		index:  make(map[string]int, len(hosts)),
		counts: make([]int64, len(hosts)),
		total:  int64(len(hosts)),
	}
	for i, h := range hosts {
		if _, dup := v.index[h]; dup {
			return nil, fmt.Errorf("core: duplicate host %q", h)
		}
		v.index[h] = i
		v.counts[i] = 1
	}
	m := &Model{vocab: v, dim: dim, in: make([]float32, len(in))}
	for i, x := range in {
		m.in[i] = float32(x)
	}
	return m, nil
}
