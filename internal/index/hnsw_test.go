package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// annIndex builds an exact index plus ANN graph over seeded random
// vectors, with optional zero rows.
func annIndex(rng *rand.Rand, rows, dim int, cfg ANNConfig, zeroRows ...int) (*Index, *ANN, []float64) {
	vecs := randMatrix(rng, rows, dim, zeroRows...)
	ix := New(vecs, rows, dim, Config{BlockRows: 64})
	return ix, ix.BuildANN(cfg), vecs
}

func TestANNBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vecs := randMatrix(rng, 800, 12)
	ix := New(vecs, 800, 12, Config{})
	a1 := ix.BuildANN(ANNConfig{Seed: 5})
	a2 := ix.BuildANN(ANNConfig{Seed: 5})
	if !reflect.DeepEqual(a1.levels, a2.levels) {
		t.Fatal("level assignment differs across rebuilds")
	}
	if !reflect.DeepEqual(a1.cnt, a2.cnt) || !reflect.DeepEqual(a1.nbr, a2.nbr) {
		t.Fatal("graph adjacency differs across rebuilds")
	}
	if a1.entry != a2.entry || a1.maxLevel != a2.maxLevel {
		t.Fatal("entry point differs across rebuilds")
	}
}

func TestANNSearchDeterministicAcrossWorkersAndRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	_, ann, _ := annIndex(rng, 1500, 16, ANNConfig{Ef: 64, Seed: 3})
	q := randMatrix(rng, 1, 16)
	want, wantFB := ann.SearchAppend(nil, q, 20, 0, 1, NoExclude)
	for workers := 1; workers <= 6; workers++ {
		for rep := 0; rep < 10; rep++ {
			got, fb := ann.SearchAppend(nil, q, 20, 0, workers, NoExclude)
			if fb != wantFB || !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d rep=%d: ANN results diverge", workers, rep)
			}
		}
	}
}

// TestANNScoresBitEqualExact pins that every ID the ANN returns carries
// the exact index's bit-identical float32 score for that row — the ANN
// approximates the candidate set, never the scores.
func TestANNScoresBitEqualExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix, ann, _ := annIndex(rng, 2000, 16, ANNConfig{Ef: 48, Seed: 9})
	for rep := 0; rep < 20; rep++ {
		q := randMatrix(rng, 1, 16)
		got, _ := ann.SearchAppend(nil, q, 15, 0, 1, NoExclude)
		exact := ix.SearchAppend(nil, q, ix.Rows(), 1, NoExclude)
		byID := make(map[int32]float32, len(exact))
		for _, r := range exact {
			byID[r.ID] = r.Score
		}
		for i, r := range got {
			if s, ok := byID[r.ID]; !ok || s != r.Score {
				t.Fatalf("rep %d rank %d: ANN score %g for ID %d, exact %g", rep, i, r.Score, r.ID, s)
			}
			if i > 0 && worse(entry{score: got[i-1].Score, row: got[i-1].ID}, entry{score: r.Score, row: r.ID}) {
				t.Fatalf("rep %d: results not in (score desc, ID asc) order at rank %d", rep, i)
			}
		}
	}
}

// TestANNSmallGraphFallsBackExact pins the pre-search fallback: when
// the graph holds no more rows than ef (or k reaches the graph), the
// answer is the exact scan's, bit for bit.
func TestANNSmallGraphFallsBackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ix, ann, _ := annIndex(rng, 100, 8, ANNConfig{Ef: 128, Seed: 1})
	q := randMatrix(rng, 1, 8)
	got, fb := ann.SearchAppend(nil, q, 10, 0, 1, NoExclude)
	if !fb {
		t.Fatal("graph of 100 rows with ef=128 must fall back to the exact scan")
	}
	want := ix.SearchAppend(nil, q, 10, 1, NoExclude)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback results %v != exact %v", got, want)
	}
	// k covering the graph falls back too, whatever ef says.
	got, fb = ann.SearchAppend(nil, q, 100, 4, 1, NoExclude)
	if !fb || !reflect.DeepEqual(got, ix.SearchAppend(nil, q, 100, 1, NoExclude)) {
		t.Fatal("k = rows must fall back to the exact scan")
	}
}

func TestANNSelfExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	_, ann, vecs := annIndex(rng, 1200, 10, ANNConfig{Ef: 40, Seed: 7})
	for _, row := range []int{0, 17, 600, 1199} {
		q := vecs[row*10 : (row+1)*10]
		got, _ := ann.SearchAppend(nil, q, 10, 0, 1, int32(row))
		for _, r := range got {
			if r.ID == int32(row) {
				t.Fatalf("excluded ID %d present in ANN results", row)
			}
		}
		// Without exclusion the row itself (cosine 1) must surface first.
		top, _ := ann.SearchAppend(nil, q, 1, 0, 1, NoExclude)
		if len(top) != 1 || top[0].ID != int32(row) {
			t.Fatalf("query = row %d vector: top hit %v, want the row itself", row, top)
		}
	}
}

func TestANNSubsetKeepsOriginalIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	rows, dim := 900, 8
	vecs := randMatrix(rng, rows, dim)
	ix := New(vecs, rows, dim, Config{})
	keep := make([]int, 0, rows/2)
	for id := 0; id < rows; id += 2 {
		keep = append(keep, id)
	}
	sub := ix.Subset(keep)
	ann := sub.BuildANN(ANNConfig{Ef: 32, Seed: 2})
	q := randMatrix(rng, 1, dim)
	got, _ := ann.SearchAppend(nil, q, 25, 0, 1, NoExclude)
	if len(got) != 25 {
		t.Fatalf("got %d results, want 25", len(got))
	}
	for _, r := range got {
		if r.ID%2 != 0 {
			t.Fatalf("subset ANN returned ID %d outside the even-ID view", r.ID)
		}
	}
	// Exclusion addresses original IDs through the view.
	ex, _ := ann.SearchAppend(nil, q, 25, 0, 1, got[0].ID)
	for _, r := range ex {
		if r.ID == got[0].ID {
			t.Fatal("excluded original ID present in subset ANN results")
		}
	}
}

// TestANNUnindexedRows pins insert-time rejection: zero and non-finite
// rows never join the graph, and a query whose ANN tail is non-positive
// rescues itself with the exact scan so those rows stay reachable.
func TestANNUnindexedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	rows, dim := 600, 6
	vecs := randMatrix(rng, rows, dim, 10, 20, 30)
	vecs[40*dim] = math.NaN()
	vecs[50*dim+1] = math.Inf(1)
	ix := New(vecs, rows, dim, Config{})
	ann := ix.BuildANN(ANNConfig{Ef: 32, Seed: 4})
	st := ann.Stats()
	if st.Unindexed != 5 {
		t.Fatalf("unindexed = %d, want 5 (3 zero + NaN + Inf rows)", st.Unindexed)
	}
	if st.GraphRows != rows-5 {
		t.Fatalf("graph rows = %d, want %d", st.GraphRows, rows-5)
	}
	for _, bad := range []int{10, 20, 30, 40, 50} {
		if ann.levels[bad] != -1 {
			t.Fatalf("row %d should be unindexed, has level %d", bad, ann.levels[bad])
		}
	}
	// Deep k reaches into negative cosines: the ANN tail is then
	// non-positive and the post-search fallback must fire, because an
	// unindexed zero row (score exactly 0) could outrank that tail.
	q := randMatrix(rng, 1, dim)
	k := 400 // < graph rows, so the pre-search size fallback stays out
	gotDeep, fb := ann.SearchAppend(nil, q, k, 0, 1, NoExclude)
	want := ix.SearchAppend(nil, q, k, 1, NoExclude)
	if !fb {
		t.Fatal("non-positive ANN tail over a graph with unindexed rows must fall back to exact")
	}
	if len(gotDeep) != len(want) {
		t.Fatalf("fallback returned %d results, exact %d", len(gotDeep), len(want))
	}
	for i := range want {
		g, w := gotDeep[i], want[i]
		// NaN-scored rows (the scan keeps them) compare unequal to
		// themselves; match on ID plus same-bits-or-both-NaN score.
		sameNaN := math.IsNaN(float64(g.Score)) && math.IsNaN(float64(w.Score))
		if g.ID != w.ID || (g.Score != w.Score && !sameNaN) {
			t.Fatalf("fallback rank %d: got %v, exact %v", i, g, w)
		}
	}
	zeroSeen := false
	for _, r := range gotDeep {
		if r.ID == 10 || r.ID == 20 || r.ID == 30 {
			if r.Score != 0 {
				t.Fatalf("zero row %d scored %g, want exactly 0", r.ID, r.Score)
			}
			zeroSeen = true
		}
	}
	if !zeroSeen {
		t.Log("no zero row ranked within k; equality check above still holds")
	}
}

func TestANNZeroAndEdgeQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	_, ann, _ := annIndex(rng, 700, 8, ANNConfig{Ef: 32, Seed: 6})
	if got, fb := ann.SearchAppend(nil, make([]float64, 8), 5, 0, 1, NoExclude); got != nil || fb {
		t.Fatalf("zero query: got %v fb=%v, want nil false", got, fb)
	}
	if got, _ := ann.SearchAppend(nil, randMatrix(rng, 1, 8), 0, 0, 1, NoExclude); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
	empty := New[float64](nil, 0, 8, Config{})
	ea := empty.BuildANN(ANNConfig{})
	if got, _ := ea.SearchAppend(nil, randMatrix(rng, 1, 8), 3, 0, 1, NoExclude); got != nil {
		t.Fatalf("empty graph: got %v, want nil", got)
	}
	single := New(randMatrix(rng, 1, 8), 1, 8, Config{})
	sa := single.BuildANN(ANNConfig{})
	got, fb := sa.SearchAppend(nil, randMatrix(rng, 1, 8), 3, 0, 1, NoExclude)
	if !fb || len(got) != 1 {
		t.Fatalf("single-row graph: got %v fb=%v, want one exact result", got, fb)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dim mismatch must panic")
			}
		}()
		ann.SearchAppend(nil, make([]float64, 9), 1, 0, 1, NoExclude)
	}()
}

func TestANNStats(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ix, ann, _ := annIndex(rng, 1000, 8, ANNConfig{M: 8, Ef: 64, Seed: 12})
	st := ann.Stats()
	if st.Rows != 1000 || st.GraphRows != 1000 || st.Unindexed != 0 {
		t.Fatalf("stats rows: %+v", st)
	}
	if st.M != 8 || st.Ef != 64 {
		t.Fatalf("stats config echo: %+v", st)
	}
	if st.Edges <= 0 || st.BuildTime <= 0 {
		t.Fatalf("stats edges/build time: %+v", st)
	}
	if ann.Index() != ix {
		t.Fatal("Index() must return the underlying exact index")
	}
}

// TestANNSteadyStateZeroAlloc pins the zero-allocation contract of the
// ANN hot path, mirroring the exact index's test.
func TestANNSteadyStateZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(30))
	_, ann, _ := annIndex(rng, 4096, 24, ANNConfig{Ef: 64, Seed: 8})
	q := randMatrix(rng, 1, 24)
	var dst []Result
	var fb bool
	for i := 0; i < 10; i++ { // warm the state pool and grow dst
		dst, fb = ann.SearchAppend(dst[:0], q, 20, 0, 1, NoExclude)
	}
	if fb {
		t.Fatal("warm-up fell back to exact; zero-alloc claim would test the wrong path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = ann.SearchAppend(dst[:0], q, 20, 0, 1, NoExclude)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ANN SearchAppend allocates %.1f times per query, want 0", allocs)
	}
}

// BenchmarkANNSearchAppend times one graph query at the bench world's
// shape: pinCorpus (3.7K×64), k 40, ef 128, queries cycling through
// perturbed rows.
func BenchmarkANNSearchAppend(b *testing.B) {
	ix := pinCorpus()
	ann := ix.BuildANN(ANNConfig{})
	rng := rand.New(rand.NewSource(40))
	queries := make([][]float64, 256)
	for i := range queries {
		r := rng.Intn(ix.Rows())
		q := make([]float64, ix.Dim())
		for j := range q {
			q[j] = float64(ix.packed[r*ix.Dim()+j]) + 0.1*rng.NormFloat64()
		}
		queries[i] = q
	}
	var dst []Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ann.SearchAppend(dst[:0], queries[i%len(queries)], 40, 128, 1, NoExclude)
	}
}

// BenchmarkBuildANN times the graph build over pinCorpus at defaults.
func BenchmarkBuildANN(b *testing.B) {
	ix := pinCorpus()
	for i := 0; i < b.N; i++ {
		ix.BuildANN(ANNConfig{})
	}
}
