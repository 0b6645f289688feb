package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refSelect is the selection oracle: score every row with the portable
// kernel, sort them all by the total order (score desc, ID asc), cut to
// k. It shares nothing with the scan's kernel, score buffer and heap but
// the packed rows.
func refSelect(ix *Index, query []float64, k int, exclude int32) []Result {
	var norm float64
	for _, x := range query {
		norm += x * x
	}
	if k <= 0 || norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nil
	}
	q := make([]float32, ix.dim)
	for i, x := range query {
		q[i] = float32(x * (1 / math.Sqrt(norm)))
	}
	var all []Result
	for r := 0; r < ix.rows; r++ {
		id := int32(r)
		if ix.ids != nil {
			id = ix.ids[r]
		}
		if id == exclude {
			continue
		}
		all = append(all, Result{ID: id, Score: dot32Portable(q, ix.packed[r*ix.dim:(r+1)*ix.dim])})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// sameResults compares two answers bit for bit.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}

// assertSelectMatchesOracle runs one query through SearchAppend and —
// without an exclusion, which the batch does not take — through
// SearchBatchAppend, and requires the oracle's answer from each.
func assertSelectMatchesOracle(t *testing.T, what string, ix *Index, query []float64, k int, exclude int32) {
	t.Helper()
	want := refSelect(ix, query, k, exclude)
	if got := ix.SearchAppend(nil, query, k, 0, exclude); !sameResults(got, want) {
		t.Fatalf("%s: SearchAppend(k=%d, exclude=%d) over %d rows differs from the oracle\n got %v\nwant %v",
			what, k, exclude, ix.rows, clip(got), clip(want))
	}
	if exclude != NoExclude {
		return
	}
	got := make([][]Result, 1)
	ix.SearchBatchAppend(got, [][]float64{query}, k)
	if !sameResults(got[0], want) {
		t.Fatalf("%s: SearchBatchAppend(k=%d) over %d rows differs from the oracle\n got %v\nwant %v",
			what, k, ix.rows, clip(got[0]), clip(want))
	}
}

// Which way selectTop goes for one query's scores.
const (
	pathFull     = "full histogram"   // too few rows, or the sample finds no floor
	pathSampled  = "sampled cut"      // at least need rows survive the floor
	pathFallback = "sampled fallback" // a floor, but fewer than need survivors
)

// selectPath scores query over ix with the scan's bits and reports the
// path selectTop takes for it at k and exclude.
func selectPath(ix *Index, query []float64, k int, exclude int32) string {
	qs := newQueryState(ix)
	if !packQuery(qs.q, query) {
		return pathFull
	}
	for r := range qs.scores {
		qs.scores[r] = dot32(qs.q, ix.packed[r*ix.dim:(r+1)*ix.dim])
	}
	return scoresPath(qs, k, ix.rowOf(exclude))
}

// scoresPath reports the path selectTop takes over qs.scores.
func scoresPath(qs *queryState, k int, exclude int32) string {
	need := k
	if exclude >= 0 {
		need++
	}
	switch n, floor := qs.survivors(int32(need)); {
	case floor == 0:
		return pathFull
	case n >= need:
		return pathSampled
	}
	return pathFallback
}

func clip(r []Result) []Result {
	if len(r) > 12 {
		return r[:12]
	}
	return r
}

// selectKs is the k grid of the issue: 1, a mid value, rows-1, rows and
// beyond.
func selectKs(rows int) []int {
	ks := []int{1, rows - 1, rows, rows + 1, rows + 7}
	if rows > 4 {
		ks = append(ks, rows/2, rows/10+1)
	}
	return ks
}

func TestSearchSelectMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	for trial := 0; trial < 60; trial++ {
		rows := 2 + rng.Intn(600)
		dim := 1 + rng.Intn(40)
		var zero []int
		for r := 0; r < rows; r++ {
			if rng.Float64() < 0.03 {
				zero = append(zero, r)
			}
		}
		vecs := randMatrix(rng, rows, dim, zero...)
		ix := New(vecs, rows, dim)
		query := randMatrix(rng, 1, dim)
		switch trial % 15 { // a query without a direction has no neighbours
		case 12:
			clear(query)
		case 13:
			query[0] = math.NaN()
		case 14:
			query[dim-1] = math.Inf(1)
		}
		for _, k := range selectKs(rows) {
			// exclude: none, a winner (the best row), a likely loser.
			best := NoExclude
			if top := ix.Search(query, 1); len(top) == 1 {
				best = top[0].ID
			}
			for _, ex := range []int32{NoExclude, best, int32(rng.Intn(rows)), int32(rows + 3)} {
				assertSelectMatchesOracle(t, fmt.Sprintf("trial %d", trial), ix, query, k, ex)
			}
		}
	}
}

// TestSearchSelectMatchesOracleTies drives the cut through long runs of
// equal and nearly equal scores, where only the total order decides
// which rows make the cut.
func TestSearchSelectMatchesOracleTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	dim := 12
	query := randMatrix(rng, 1, dim)
	matrices := map[string]func(rows int) []float64{
		// Every score equal.
		"identical rows": func(rows int) []float64 {
			base := randMatrix(rng, 1, dim)
			m := make([]float64, 0, rows*dim)
			for r := 0; r < rows; r++ {
				m = append(m, base...)
			}
			return m
		},
		// A handful of distinct directions, each repeated many times.
		"few distinct rows": func(rows int) []float64 {
			bases := randMatrix(rng, 5, dim)
			m := make([]float64, 0, rows*dim)
			for r := 0; r < rows; r++ {
				b := rng.Intn(5)
				m = append(m, bases[b*dim:(b+1)*dim]...)
			}
			return m
		},
		// Scores that differ only in their last bits, interleaved with
		// exact duplicates.
		"nearly equal rows": func(rows int) []float64 {
			base := randMatrix(rng, 1, dim)
			m := make([]float64, 0, rows*dim)
			for r := 0; r < rows; r++ {
				for i, x := range base {
					if i == r%dim && r%3 != 0 {
						x += 1e-5 * (rng.Float64() - 0.5)
					}
					m = append(m, x)
				}
			}
			return m
		},
		// One row parallel to the query — alone in the top bucket of the
		// selection's pre-filter, and excluded in some runs — over a
		// crowd whose scores share one bucket and mostly tie.
		"one winner over a crowd": func(rows int) []float64 {
			crowd := randMatrix(rng, 1, dim)
			m := make([]float64, 0, rows*dim)
			for r := 0; r < rows; r++ {
				row := crowd
				if r == rows/2 {
					row = query
				}
				m = append(m, row...)
				if r%3 == 0 {
					m[len(m)-1] += 1e-5 * rng.Float64()
				}
			}
			return m
		},
		// Rows parallel and anti-parallel to the query at many scales:
		// their float32 scores land on ±1 and an ulp past it, outside the
		// range the pre-filter's buckets divide.
		"scores at and past ±1": func(rows int) []float64 {
			m := make([]float64, 0, rows*dim)
			for r := 0; r < rows; r++ {
				scale := (0.1 + 10*rng.Float64()) * float64(1-2*(r%2))
				for _, x := range query {
					m = append(m, scale*x)
				}
			}
			return m
		},
		// Zero rows tie at exactly 0 with everything orthogonal.
		"mostly zero rows": func(rows int) []float64 {
			m := randMatrix(rng, rows, dim)
			for r := 0; r < rows; r++ {
				if r%4 != 0 {
					clear(m[r*dim : (r+1)*dim])
				}
			}
			return m
		},
	}
	for what, build := range matrices {
		for _, rows := range []int{9, 257, 700} {
			ix := New(build(rows), rows, dim)
			for _, k := range selectKs(rows) {
				for _, ex := range []int32{NoExclude, 0, int32(rows / 2), int32(rows - 1)} {
					assertSelectMatchesOracle(t, what, ix, query, k, ex)
				}
			}
		}
	}
}

// TestBucketOfMonotone pins the one property the selection's pre-filter
// needs of its score-to-bucket map: it never decreases, and it stays in
// range for scores past ±1, infinities and NaN.
func TestBucketOfMonotone(t *testing.T) {
	past := math.Nextafter32(1, 2)
	scores := []float32{float32(math.Inf(-1)), -2, -past, -1, -math.Nextafter32(1, 0), -0.5, -1e-9, 0, 1e-9,
		0.25, 0.5 - 1e-7, 0.5, 0.999, math.Nextafter32(1, 0), 1, past, 2, float32(math.Inf(1))}
	rng := rand.New(rand.NewSource(1605))
	for i := 0; i < 5000; i++ {
		scores = append(scores, 2.2*rng.Float32()-1.1)
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i] < scores[j] })
	prev := 0
	for _, s := range scores {
		b := bucketOf(s)
		if b < prev || b >= selectBuckets {
			t.Fatalf("bucketOf(%g) = %d after %d", s, b, prev)
		}
		prev = b
	}
	if bucketOf(-1) != 0 || bucketOf(1) != selectBuckets-1 || bucketOf(0) != selectBuckets/2 {
		t.Fatalf("buckets of -1, 0, 1: %d, %d, %d", bucketOf(-1), bucketOf(0), bucketOf(1))
	}
	if b := bucketOf(float32(math.NaN())); b != 0 {
		t.Fatalf("bucketOf(NaN) = %d", b)
	}
}

// TestBucketLo pins the sampled cut's floor table: bucketLo[b] is in
// bucket b, and the float32 below it is not.
func TestBucketLo(t *testing.T) {
	for b := 1; b < selectBuckets; b++ {
		lo := bucketLo[b]
		if got := bucketOf(lo); got != b {
			t.Fatalf("bucketOf(bucketLo[%d] = %g) = %d", b, lo, got)
		}
		if below := math.Nextafter32(lo, float32(math.Inf(-1))); bucketOf(below) != b-1 {
			t.Fatalf("bucketOf(%g), just below bucketLo[%d], = %d", below, b, bucketOf(below))
		}
	}
}

// refTop is the oracle over bare scores: rows by score descending, ties
// by ascending row, exclude dropped, cut to k.
func refTop(scores []float32, k int, exclude int32) []Result {
	var all []Result
	for r, s := range scores {
		if int32(r) != exclude {
			all = append(all, Result{ID: int32(r), Score: s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	return all[:min(k, len(all))]
}

// TestSelectTopSampledCut drives selectTop over hand-laid scores past
// the sampled cut's row threshold, one case per way through it, and
// requires both the path it takes and the oracle's answer. The sample
// sees every 8th row, so placing scores on rows r%8 == 0 or off them
// steers what the sample believes.
func TestSelectTopSampledCut(t *testing.T) {
	const rows = 1024
	rng := rand.New(rand.NewSource(1606))
	crowd := func() []float32 { // low scores everywhere
		s := make([]float32, rows)
		for r := range s {
			s[r] = 0.6*rng.Float32() - 0.4
		}
		return s
	}
	at := func(b int) float32 { return bucketLo[b] }
	b07 := bucketOf(0.7)
	cases := []struct {
		name    string
		scores  func() []float32
		k       int
		exclude int32
		path    string
	}{
		{"spread scores", crowd, 40, -1, pathSampled},
		{"spread scores, best row excluded", crowd, 40, 0, pathSampled},
		{"spread scores, k 1", crowd, 1, -1, pathSampled},
		{"one score everywhere: every row survives", func() []float32 {
			s := make([]float32, rows)
			for r := range s {
				s[r] = 0.25
			}
			return s
		}, 40, 7, pathSampled},
		{"every score in bucket 0: no floor", func() []float32 {
			s := make([]float32, rows)
			for r := range s {
				s[r] = -1
			}
			return s
		}, 40, -1, pathFull},
		{"below the row threshold", crowd, rows/sampleMinRatio + 1, -1, pathFull},
		// 20 high rows, all where the sample looks: it puts the floor
		// among them, and only they survive.
		{"few winners, all sampled", func() []float32 {
			s := crowd()
			for i := 0; i < 20; i++ {
				s[8*i] = 0.9 - 0.01*float32(i)
			}
			return s
		}, 40, -1, pathFallback},
		// The k-th best ties with 60 rows the sample never sees, one
		// ulp under the floor: they all fall below it.
		{"k-th tie just under the floor", func() []float32 {
			s := crowd()
			for i := 0; i < 14; i++ {
				s[8*i] = at(b07)
			}
			for i := 0; i < 60; i++ {
				s[8*i+3] = math.Nextafter32(at(b07), 0)
			}
			return s
		}, 40, -1, pathFallback},
		// The same tie exactly on the floor (the sample's 12th row sits
		// there) survives whole.
		{"k-th tie on the floor", func() []float32 {
			s := crowd()
			for i := 0; i < 11; i++ {
				s[8*i] = 0.9
			}
			s[8*11] = at(b07)
			for i := 0; i < 60; i++ {
				s[8*i+3] = at(b07)
			}
			return s
		}, 40, -1, pathSampled},
		// need = k+1 = 10 survivors exactly, the excluded row one of
		// them and tied with the floor's sampled row.
		{"excluded row at the floor, need survivors", func() []float32 {
			s := crowd()
			for i, v := range []float32{0.95, 0.9, 0.85, 0.8, 0.75, at(b07)} {
				s[8*i] = v
			}
			s[101], s[205], s[309], s[413] = 0.97, 0.72, 0.71, at(b07)
			return s
		}, 9, 413, pathSampled},
		// One survivor fewer: k survive, the excluded row among them,
		// so only k-1 are selectable and the full histogram must run.
		{"excluded row at the floor, k survivors", func() []float32 {
			s := crowd()
			for i, v := range []float32{0.95, 0.9, 0.85, 0.8, 0.75, at(b07)} {
				s[8*i] = v
			}
			s[101], s[205], s[413] = 0.97, 0.72, at(b07)
			return s
		}, 9, 413, pathFallback},
	}
	ix := New(make([]float32, rows), rows, 1)
	for _, c := range cases {
		qs := newQueryState(ix)
		scores := c.scores()
		copy(qs.scores, scores)
		if got := scoresPath(qs, c.k, c.exclude); got != c.path {
			t.Errorf("%s: path %q, want %q", c.name, got, c.path)
		}
		want := refTop(scores, c.k, c.exclude)
		if got := qs.selectTop(nil, c.k, c.exclude, nil); !sameResults(got, want) {
			t.Errorf("%s: selectTop(k=%d, exclude=%d)\n got %v\nwant %v", c.name, c.k, c.exclude, clip(got), clip(want))
		}
	}
}

// TestSearchSelectSampledCutOracle runs matrices past the sampled cut's
// row threshold through SearchAppend and SearchBatchAppend against the
// oracle, and pins which path each world's query takes.
func TestSearchSelectSampledCutOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1607))
	dim := 8
	query := make([]float64, dim)
	query[0] = 1
	// A row scoring cosine c against query, its remainder on axis 1+r%7.
	row := func(r int, c float64) []float64 {
		v := make([]float64, dim)
		v[0], v[1+r%(dim-1)] = c, math.Sqrt(1-c*c)
		return v
	}
	worlds := map[string]struct {
		rows  int
		build func(rows int) []float64
		path  string
	}{
		"random rows": {2000, func(rows int) []float64 { return randMatrix(rng, rows, dim, 5, 900) }, pathSampled},
		"few winners where the sample looks": {1000, func(rows int) []float64 {
			var m []float64
			for r := 0; r < rows; r++ {
				c := 0.1 * rng.Float64()
				if r%8 == 0 && r < 8*20 {
					c = 0.9 + 0.05*rng.Float64()
				}
				m = append(m, row(r, c)...)
			}
			return m
		}, pathFallback},
		"identical rows": {1000, func(rows int) []float64 {
			var m []float64
			for r := 0; r < rows; r++ {
				m = append(m, row(0, 0.3)...)
			}
			return m
		}, pathSampled},
		"anti-parallel rows": {1000, func(rows int) []float64 {
			var m []float64
			for r := 0; r < rows; r++ {
				m = append(m, -float64(1+r%3), 0, 0, 0, 0, 0, 0, 0)
			}
			return m
		}, pathFull},
	}
	for what, w := range worlds {
		ix := New(w.build(w.rows), w.rows, dim)
		if got := selectPath(ix, query, 40, NoExclude); got != w.path {
			t.Errorf("%s: k 40 takes the %s, want the %s", what, got, w.path)
		}
		for _, k := range []int{1, 9, 40, w.rows/sampleMinRatio - 1} {
			for _, ex := range []int32{NoExclude, 0, 5, int32(w.rows / 2)} {
				assertSelectMatchesOracle(t, what, ix, query, k, ex)
			}
		}
	}
}

// TestSearchSelectMatchesOracleSubset checks the same equivalence on a
// Subset view, where rows and original IDs differ.
func TestSearchSelectMatchesOracleSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	rows, dim := 400, 9
	full := New(randMatrix(rng, rows, dim, 5, 6, 200), rows, dim)
	var ids []int
	for id := 0; id < rows; id++ {
		if rng.Float64() < 0.3 {
			ids = append(ids, id)
		}
	}
	sub := full.Subset(ids)
	for trial := 0; trial < 10; trial++ {
		query := randMatrix(rng, 1, dim)
		for _, k := range selectKs(len(ids)) {
			for _, ex := range []int32{NoExclude, int32(ids[0]), int32(ids[len(ids)/2]), 1} {
				assertSelectMatchesOracle(t, "subset", sub, query, k, ex)
			}
		}
	}
}

// TestSearchRejectsNonFiniteQuery is the regression test for the exact
// scan ranking a query with a NaN or Inf component (it returned k rows
// scored NaN in arbitrary order): exact, ANN and ANN-fallback searches
// all treat such a query like the zero query — no neighbourhood.
func TestSearchRejectsNonFiniteQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(1604))
	rows, dim := 300, 8
	ix := New(randMatrix(rng, rows, dim), rows, dim)
	graph := ix.BuildANN(ANNConfig{Ef: 16}) // 300 rows > ef: answers from the graph
	fallback := ix.BuildANN(ANNConfig{})    // 300 rows > default ef 128, but k below forces the scan
	for what, bad := range map[string]float64{"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "NaN": math.NaN(), "overflowing norm": 1e200} {
		q := randMatrix(rng, 1, dim)
		q[rng.Intn(dim)] = bad
		if got := ix.Search(q, 5); len(got) != 0 {
			t.Errorf("%s query: exact scan returned %d rows: %v", what, len(got), clip(got))
		}
		if got, fell := graph.SearchAppend(nil, q, 5, 0, 1, NoExclude); len(got) != 0 || fell {
			t.Errorf("%s query: ANN returned %d rows: %v (fallback %v)", what, len(got), clip(got), fell)
		}
		if got, fell := fallback.SearchAppend(nil, q, rows, 0, 1, NoExclude); len(got) != 0 || !fell {
			t.Errorf("%s query: ANN fallback returned %d rows: %v (fallback %v)", what, len(got), clip(got), fell)
		}
	}
}

// BenchmarkSearchPaperScale times the exact scan in the paper's regime —
// 470K hostnames, 128 dimensions, N ≪ rows — which no declared workload
// of bench/ reaches: a clustered synthetic matrix (the recall gate's
// shape), k = 10 and the paper's k = 1000.
func BenchmarkSearchPaperScale(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a 470K x 128 matrix")
	}
	rng := rand.New(rand.NewSource(470))
	rows, dim, clusters := 470_000, 128, 2000
	vecs := clusteredMatrix(rng, rows, dim, clusters, 0.25)
	ix := New(vecs, rows, dim)
	queries := make([][]float64, 16)
	for i := range queries {
		queries[i] = sessionQuery(rng, vecs, rows, dim, clusters)
	}
	vecs = nil
	var dst []Result
	for _, k := range []int{10, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = ix.SearchAppend(dst[:0], queries[i%len(queries)], k, 0, NoExclude)
			}
		})
	}
}
