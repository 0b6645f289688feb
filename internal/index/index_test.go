package index

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// randMatrix returns a rows×dim row-major matrix with entries in
// [-1, 1), plus every index in zeroRows zeroed out.
func randMatrix(rng *rand.Rand, rows, dim int, zeroRows ...int) []float64 {
	m := make([]float64, rows*dim)
	for i := range m {
		m[i] = rng.Float64()*2 - 1
	}
	for _, r := range zeroRows {
		for i := 0; i < dim; i++ {
			m[r*dim+i] = 0
		}
	}
	return m
}

// refRank ranks every row by exact float64 cosine against query,
// descending, ties by ascending row. Zero rows and the excluded row are
// dropped, matching the index's contract.
func refRank(vecs []float64, rows, dim int, query []float64, exclude int) []Result {
	var qn float64
	for _, x := range query {
		qn += x * x
	}
	qn = math.Sqrt(qn)
	type scored struct {
		id  int
		cos float64
	}
	var all []scored
	for r := 0; r < rows; r++ {
		if r == exclude {
			continue
		}
		var dot, rn float64
		for i := 0; i < dim; i++ {
			dot += vecs[r*dim+i] * query[i]
			rn += vecs[r*dim+i] * vecs[r*dim+i]
		}
		cos := 0.0
		if rn > 0 && qn > 0 {
			cos = dot / (math.Sqrt(rn) * qn)
		}
		all = append(all, scored{r, cos})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].cos != all[j].cos {
			return all[i].cos > all[j].cos
		}
		return all[i].id < all[j].id
	})
	out := make([]Result, len(all))
	for i, s := range all {
		out[i] = Result{ID: int32(s.id), Score: float32(s.cos)}
	}
	return out
}

// assertRankEquiv checks got against the exact float64 ranking ref,
// allowing ID divergence only where the true cosines are within tol of
// each other (the float32 representation bound).
func assertRankEquiv(t *testing.T, got, ref []Result, tol float64) {
	t.Helper()
	if len(got) > len(ref) {
		t.Fatalf("got %d results, reference has %d", len(got), len(ref))
	}
	refCos := make(map[int32]float64, len(ref))
	for _, r := range ref {
		refCos[r.ID] = float64(r.Score)
	}
	for i, g := range got {
		if g.ID == ref[i].ID {
			continue
		}
		want, ok := refCos[g.ID]
		if !ok {
			t.Fatalf("rank %d: ID %d not in reference (zero row or excluded?)", i, g.ID)
		}
		if d := math.Abs(want - float64(ref[i].Score)); d > tol {
			t.Fatalf("rank %d: got ID %d (cos %g) want ID %d (cos %g), diff %g > tol %g",
				i, g.ID, want, ref[i].ID, ref[i].Score, d, tol)
		}
	}
}

const cosTol = 1e-4 // generous vs the ~(d+2)·2⁻²⁴ float32 bound

func TestSearchMatchesExactRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ rows, dim, k int }{
		{rows: 1, dim: 1, k: 1},
		{rows: 3, dim: 2, k: 5}, // k > rows
		{rows: 50, dim: 7, k: 10},
		{rows: 200, dim: 17, k: 25},
		{rows: 333, dim: 32, k: 333},
	} {
		vecs := randMatrix(rng, tc.rows, tc.dim)
		ix := New(vecs, tc.rows, tc.dim)
		q := randMatrix(rng, 1, tc.dim)
		got := ix.Search(q, tc.k)
		ref := refRank(vecs, tc.rows, tc.dim, q, -1)
		wantLen := tc.k
		if wantLen > tc.rows {
			wantLen = tc.rows
		}
		if len(got) != wantLen {
			t.Fatalf("rows=%d k=%d: got %d results, want %d", tc.rows, tc.k, len(got), wantLen)
		}
		assertRankEquiv(t, got, ref, cosTol)
	}
}

func TestSearchZeroRowsRankLast(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs := randMatrix(rng, 20, 5, 3, 11)
	ix := New(vecs, 20, 5)
	got := ix.Search(randMatrix(rng, 1, 5), 20)
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	// Zero rows score exactly 0 and must still be reported when k covers
	// the whole matrix.
	seen := map[int32]float32{}
	for _, r := range got {
		seen[r.ID] = r.Score
	}
	for _, zr := range []int32{3, 11} {
		if s, ok := seen[zr]; !ok || s != 0 {
			t.Fatalf("zero row %d: score %g, present %v; want 0, true", zr, s, ok)
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vecs := randMatrix(rng, 10, 4)
	ix := New(vecs, 10, 4)
	q := randMatrix(rng, 1, 4)

	if got := ix.Search(q, 0); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
	if got := ix.Search(make([]float64, 4), 3); got != nil {
		t.Fatalf("zero query: got %v, want nil", got)
	}
	empty := New[float64](nil, 0, 4)
	if got := empty.Search(q, 3); got != nil {
		t.Fatalf("empty index: got %v, want nil", got)
	}
	dst := []Result{{ID: 99, Score: 1}}
	out := ix.SearchAppend(dst, q, 2, 0, NoExclude)
	if len(out) != 3 || out[0] != dst[0] {
		t.Fatalf("SearchAppend must append after existing results: %v", out)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dim mismatch must panic")
			}
		}()
		ix.Search(make([]float64, 5), 1)
	}()
}

func TestSearchExclude(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vecs := randMatrix(rng, 30, 6)
	ix := New(vecs, 30, 6)
	// Query with row 4 itself: the top hit would be row 4 (cosine 1);
	// excluding it must drop it everywhere.
	q := vecs[4*6 : 5*6]
	got := ix.SearchAppend(nil, q, 30, 0, 4)
	if len(got) != 29 {
		t.Fatalf("got %d results, want 29", len(got))
	}
	for _, r := range got {
		if r.ID == 4 {
			t.Fatal("excluded ID 4 present in results")
		}
	}
	ref := refRank(vecs, 30, 6, q, 4)
	assertRankEquiv(t, got, ref, cosTol)
}

func TestSearchTieBreakOnID(t *testing.T) {
	// Rows 2, 5 and 9 are identical: equal cosines must rank by
	// ascending ID.
	rng := rand.New(rand.NewSource(11))
	dim := 8
	vecs := randMatrix(rng, 12, dim)
	for _, dup := range []int{5, 9} {
		copy(vecs[dup*dim:(dup+1)*dim], vecs[2*dim:3*dim])
	}
	ix := New(vecs, 12, dim)
	q := vecs[2*dim : 3*dim]
	got := ix.SearchAppend(nil, q, 3, 0, NoExclude)
	if ids := []int32{got[0].ID, got[1].ID, got[2].ID}; !reflect.DeepEqual(ids, []int32{2, 5, 9}) {
		t.Fatalf("tie order %v, want [2 5 9]", ids)
	}
}

func TestSearchConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, dim := 300, 12
	vecs := randMatrix(rng, rows, dim)
	ix := New(vecs, rows, dim)
	queries := make([][]float64, 8)
	wants := make([][]Result, len(queries))
	for i := range queries {
		queries[i] = randMatrix(rng, 1, dim)
		wants[i] = ix.SearchAppend(nil, queries[i], 15, 1, NoExclude)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				i := (g + rep) % len(queries)
				got := ix.SearchAppend(nil, queries[i], 15, 0, NoExclude)
				if !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("goroutine %d rep %d: results diverge", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rows, dim := 40, 6
	vecs := randMatrix(rng, rows, dim)
	ix := New(vecs, rows, dim)
	keep := []int{1, 4, 7, 20, 39}
	sub := ix.Subset(keep)
	if sub.Rows() != len(keep) {
		t.Fatalf("subset rows = %d, want %d", sub.Rows(), len(keep))
	}
	q := randMatrix(rng, 1, dim)
	got := sub.Search(q, len(keep))
	if len(got) != len(keep) {
		t.Fatalf("got %d results, want %d", len(got), len(keep))
	}
	inKeep := map[int32]bool{}
	for _, id := range keep {
		inKeep[int32(id)] = true
	}
	for _, r := range got {
		if !inKeep[r.ID] {
			t.Fatalf("subset returned ID %d outside the view", r.ID)
		}
	}
	// Scores and relative order must match the full index restricted to
	// the kept IDs.
	full := ix.Search(q, rows)
	var restricted []Result
	for _, r := range full {
		if inKeep[r.ID] {
			restricted = append(restricted, r)
		}
	}
	if !reflect.DeepEqual(got, restricted) {
		t.Fatalf("subset ranking %v != restricted full ranking %v", got, restricted)
	}

	// Exclusion inside a subset maps through original IDs.
	ex := sub.SearchAppend(nil, q, len(keep), 0, 7)
	for _, r := range ex {
		if r.ID == 7 {
			t.Fatal("excluded ID 7 present in subset results")
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unsorted subset IDs must panic")
			}
		}()
		ix.Subset([]int{4, 1})
	}()
}

// TestSearchSteadyStateZeroAlloc pins the zero-allocation contract of
// the indexed hot path: after warm-up, a query with a reused result
// buffer must not allocate, even with parallel scanning engaged.
func TestSearchSteadyStateZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if testing.Short() && runtime.GOMAXPROCS(0) < 1 {
		t.Skip("unreachable; keeps short-mode semantics explicit")
	}
	rng := rand.New(rand.NewSource(15))
	rows, dim := 2048, 24
	vecs := randMatrix(rng, rows, dim)
	ix := New(vecs, rows, dim)
	q := randMatrix(rng, 1, dim)
	var dst []Result
	for i := 0; i < 10; i++ { // warm the state pool and grow dst
		dst = ix.SearchAppend(dst[:0], q, 50, 0, NoExclude)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = ix.SearchAppend(dst[:0], q, 50, 0, NoExclude)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SearchAppend allocates %.1f times per query, want 0", allocs)
	}
}

func BenchmarkSearchAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	rows, dim := 100_000, 128
	vecs := randMatrix(rng, rows, dim)
	ix := New(vecs, rows, dim)
	q := randMatrix(rng, 1, dim)
	var dst []Result
	b.ReportAllocs()
	b.SetBytes(int64(4 * rows * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.SearchAppend(dst[:0], q, 100, 0, NoExclude)
	}
}

// TestSearchBatchMatchesSearchAppend pins the batch scan to the
// single-query scan on both kernel paths: the same IDs, score bits and
// order for every query, with zero and NaN queries left unanswered,
// repeated queries, query counts off the pass width, k at and past the
// row count, widths on and off the AVX2 kernel's multiple of 4, and a
// subset view's ID mapping.
func TestSearchBatchMatchesSearchAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	forEachQ4Path(func(path string) {
		for _, dim := range []int{24, 7} {
			for _, rows := range []int{0, 1, 3, 4, 5, 1927} {
				var zero []int
				if rows > 3 {
					zero = []int{2}
				}
				full := New(randMatrix(rng, rows, dim, zero...), rows, dim)
				views := map[string]*Index{"full": full}
				if rows > 3 {
					views["subset"] = full.Subset([]int{0, 2, rows - 1})
				}
				for view, ix := range views {
					for _, nq := range []int{1, 2, 3, 5, 6, 7, 9, 13} {
						queries := make([][]float64, nq)
						for i := range queries {
							queries[i] = randMatrix(rng, 1, dim)
							switch {
							case i%5 == 1:
								clear(queries[i]) // no direction
							case i%5 == 3:
								queries[i][dim-1] = math.NaN()
							case i > 0 && i == nq-1:
								queries[i] = queries[0]
							}
						}
						for _, k := range []int{1, 10, ix.Rows(), ix.Rows() + 3} {
							// A kept prefix: the batch appends, like SearchAppend.
							prefix := []Result{{ID: -7, Score: 2}}
							dst := make([][]Result, nq)
							for i := range dst {
								dst[i] = append([]Result(nil), prefix...)
							}
							ix.SearchBatchAppend(dst, queries, k)
							for i, q := range queries {
								want := ix.SearchAppend(append([]Result(nil), prefix...), q, k, 0, NoExclude)
								if !sameResults(dst[i], want) {
									t.Fatalf("%s, %s view, dim %d, rows %d, %d queries, k %d: query %d\n got %v\nwant %v",
										path, view, dim, rows, nq, k, i, clip(dst[i]), clip(want))
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestSearchBatchSteadyStateZeroAlloc extends the zero-allocation
// contract to the batch scan: with reused answer buffers, a batch of
// queries allocates nothing.
func TestSearchBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(17))
	rows, dim := 2048, 24
	ix := New(randMatrix(rng, rows, dim), rows, dim)
	queries := make([][]float64, 7)
	for i := range queries {
		queries[i] = randMatrix(rng, 1, dim)
	}
	dst := make([][]Result, len(queries))
	run := func() {
		for i := range dst {
			dst[i] = dst[i][:0]
		}
		ix.SearchBatchAppend(dst, queries, 50)
	}
	for i := 0; i < 10; i++ { // warm the state pool and grow dst
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state SearchBatchAppend allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkSearchBatchAppend times the batch scan per query at the bench
// world's shape (1927 rows × 64, k 40), against one SearchAppend per
// query.
func BenchmarkSearchBatchAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	rows, dim := 1927, 64
	ix := New(randMatrix(rng, rows, dim), rows, dim)
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = randMatrix(rng, 1, dim)
	}
	dst := make([][]Result, len(queries))
	perQuery := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = dst[j][:0]
			}
			ix.SearchBatchAppend(dst, queries, 40)
		}
		perQuery(b)
	})
	b.Run("one-by-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, q := range queries {
				dst[j] = ix.SearchAppend(dst[j][:0], q, 40, 0, NoExclude)
			}
		}
		perQuery(b)
	})
}
