// Package index implements an exact top-k cosine-similarity index over
// dense embedding matrices: the one scan that answers the paper's
// Eq. (3) neighbourhood query.
//
// The index packs unit-normalized central embeddings into a contiguous
// float32 matrix built once per trained model; the paper's Eq. (3)
// neighbourhood query scans every vocabulary row per session. At the
// bench world's size the matrix (≈ 0.5 MB) sits in L2 and the scan is
// bound by its floating-point operations; at the paper's 470K rows it
// streams 240 MB per query and memory bandwidth binds, which float32
// halves against float64. Every exact query runs in one pass on the
// calling goroutine: up to four packed queries are scored against every
// row with a four-lane SIMD kernel (dot.go) into row-indexed score
// buffers, and each buffer is folded through one bounded heap under a
// total order (higher score first, ties broken by ascending ID), so
// results are reproducible across runs and batch shapes. A single query
// (SearchAppend) is a pass of one; a batch (SearchBatchAppend) shares
// each pass among four queries and brings its own parallelism.
//
// Exactness: the index performs the same brute-force scan as a serial
// float64 scan (internal/core keeps one as a test oracle), only in
// float32. A dot product of two unit vectors of
// dimension d rounded to float32 differs from its float64 value by at
// most about (d+2)·2⁻²⁴ (≈ 8e-6 at d=128), so ranks agree with the
// float64 scan except between candidates whose true cosines are within
// that bound — where both orders are equally correct answers to Eq. (3).
// The equivalence suite in internal/core pins this down.
package index

import (
	"math"
	"sync"
)

// NoExclude disables row exclusion in SearchAppend.
const NoExclude int32 = -1

// Result is one query answer: a row's original ID and its cosine
// similarity to the query.
type Result struct {
	ID    int32
	Score float32
}

// Index is an immutable packed similarity index. All methods are safe
// for concurrent use; queries never mutate shared state outside their
// pooled scratch.
type Index struct {
	dim  int
	rows int
	// packed holds the unit-normalized vectors, row-major float32.
	// Zero vectors stay zero (cosine 0 against everything), matching
	// the serial reference.
	packed []float32
	// ids maps row index to original vocabulary ID; nil means identity
	// (full-vocabulary index). Subset views keep ids sorted ascending
	// so the row-order tie-break equals the ID tie-break.
	ids []int32

	batches sync.Pool // *batchState
}

// New builds an index over a row-major matrix of rows×dim central
// embeddings, float32 as a trained model holds them or float64. The
// matrix is copied and normalized, each row's norm accumulated in
// float64; the source is not retained.
func New[F float32 | float64](vecs []F, rows, dim int) *Index {
	if rows < 0 || dim <= 0 || len(vecs) < rows*dim {
		panic("index: matrix shorter than rows*dim")
	}
	ix := &Index{dim: dim, rows: rows, packed: make([]float32, rows*dim)}
	for r := 0; r < rows; r++ {
		src := vecs[r*dim : r*dim+dim]
		var norm float64
		for _, x := range src {
			norm += float64(x) * float64(x)
		}
		if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
			// Zero rows stay zero (cosine 0 against everything), and rows
			// with NaN/Inf components join them: their cosine is
			// undefined, the float64 serial reference already scores them
			// 0 via its rn > 0 guard, and a NaN score would poison the
			// selection (it has no place in the order).
			continue
		}
		inv := 1 / math.Sqrt(norm)
		dst := ix.packed[r*dim : r*dim+dim]
		for i, x := range src {
			dst[i] = float32(float64(x) * inv)
		}
	}
	ix.batches.New = func() any { return newBatchState(ix) }
	return ix
}

// Subset returns a view restricted to the given original IDs, which must
// be sorted ascending and in range — e.g. the ontology-covered subset of
// the vocabulary for callers that only want labelled neighbours. The
// view copies the selected rows into its own packed matrix (the scan
// stays contiguous) and reports results under the original IDs.
//
// No product code calls it: the profiler scans the whole vocabulary and
// filters by label. It stays because bench/layers.go times a labelled
// view as index.search_us; it goes when that row is repointed at the
// full-vocabulary scan (ROADMAP 1(b)).
func (ix *Index) Subset(origIDs []int) *Index {
	sub := &Index{
		dim:    ix.dim,
		rows:   len(origIDs),
		packed: make([]float32, len(origIDs)*ix.dim),
		ids:    make([]int32, len(origIDs)),
	}
	prev := -1
	for r, id := range origIDs {
		if id <= prev || id >= ix.rows {
			panic("index: subset IDs must be sorted ascending and in range")
		}
		prev = id
		sub.ids[r] = int32(id)
		copy(sub.packed[r*sub.dim:(r+1)*sub.dim], ix.packed[id*ix.dim:(id+1)*ix.dim])
	}
	sub.batches.New = func() any { return newBatchState(sub) }
	return sub
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.rows }

// Bytes returns the size of the packed matrix in bytes.
func (ix *Index) Bytes() int { return 4 * len(ix.packed) }

// Search returns the k rows most similar to query in decreasing cosine
// order (ties broken by ascending ID). It allocates the result slice;
// hot paths should use SearchAppend with a reused buffer.
func (ix *Index) Search(query []float64, k int) []Result {
	return ix.SearchAppend(nil, query, k, 0, NoExclude)
}

// SearchAppend appends the k rows most similar to query to dst and
// returns the extended slice, in decreasing cosine order with ties
// broken by ascending ID. exclude suppresses one original ID (NoExclude
// for none). workers is accepted and ignored: the query is one pass on
// the calling goroutine, as in SearchBatchAppend. A zero or non-finite
// query has no defined neighbourhood and returns dst unchanged, like the
// serial reference. Steady state, the query allocates nothing beyond
// growing dst.
func (ix *Index) SearchAppend(dst []Result, query []float64, k, workers int, exclude int32) []Result {
	if k <= 0 || ix.rows == 0 {
		return dst
	}
	if len(query) != ix.dim {
		panic("index: query dimensionality mismatch")
	}
	bs := ix.batches.Get().(*batchState)
	if packQuery(bs.q[0].q, query) {
		one := [1][]Result{dst}
		bs.who[0] = 0
		bs.pass(one[:], 1, k, ix.rowOf(exclude))
		dst = one[0]
	}
	ix.batches.Put(bs)
	return dst
}

// SearchBatchAppend answers several queries in shared passes over the
// rows: dst[i] gets what SearchAppend(dst[i], queries[i], k, 0,
// NoExclude) would append — the same IDs, score bits and order — and a
// query without a direction leaves dst[i] unchanged. len(dst) must equal
// len(queries).
//
// Each pass scores up to four queries against every row, so the matrix
// is read once per four queries rather than once per query, then
// selects each query's top k on its own. Passes run on the calling
// goroutine only: a batch caller brings its own parallelism. Steady
// state, a batch allocates nothing beyond growing dst.
func (ix *Index) SearchBatchAppend(dst [][]Result, queries [][]float64, k int) {
	if len(dst) != len(queries) {
		panic("index: SearchBatchAppend needs one dst per query")
	}
	if k <= 0 || ix.rows == 0 {
		return
	}
	bs := ix.batches.Get().(*batchState)
	n := 0 // queries packed into the pending pass
	for i, query := range queries {
		if len(query) != ix.dim {
			panic("index: query dimensionality mismatch")
		}
		if !packQuery(bs.slot(n).q, query) {
			continue
		}
		bs.who[n] = i
		if n++; n == len(bs.q) {
			bs.pass(dst, n, k, -1)
			n = 0
		}
	}
	if n > 0 {
		bs.pass(dst, n, k, -1)
	}
	ix.batches.Put(bs)
}

// packQuery writes query unit-normalized into dst as float32, reporting
// false — dst undefined — for a query without a direction: zero, or
// with a NaN/Inf component or a norm that overflows. Every search path
// normalizes through here, so exact and ANN queries see the same bits
// and reject the same inputs.
func packQuery(dst []float32, query []float64) bool {
	var norm float64
	for _, x := range query {
		norm += x * x
	}
	if norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return false
	}
	inv := 1 / math.Sqrt(norm)
	for i, x := range query {
		dst[i] = float32(x * inv)
	}
	return true
}

// rowOf maps an original ID to its row index, or -1 when absent.
func (ix *Index) rowOf(origID int32) int32 {
	if origID < 0 {
		return -1
	}
	if ix.ids == nil {
		if int(origID) >= ix.rows {
			return -1
		}
		return origID
	}
	lo, hi := 0, len(ix.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.ids[mid] < origID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.ids) && ix.ids[lo] == origID {
		return int32(lo)
	}
	return -1
}
