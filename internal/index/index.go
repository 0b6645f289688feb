// Package index implements an exact top-k cosine-similarity index over
// dense embedding matrices: the one scan that answers the paper's
// Eq. (3) neighbourhood query.
//
// The index packs unit-normalized central embeddings into a contiguous
// float32 matrix built once per trained model, halving memory traffic on
// the scan (the paper's Eq. (3) neighbourhood query runs over every
// vocabulary row per session, so the scan is bandwidth-bound). The row
// space is partitioned into cache-sized blocks claimed by a bounded set
// of scanners — the querying goroutine plus idle helpers from a
// process-wide pool — each scoring its blocks straight into one
// row-indexed score buffer with a four-lane SIMD kernel (dot.go); the
// querying goroutine then folds the buffer through one bounded heap
// under a total order (higher score first, ties broken by ascending
// ID), so results are reproducible across runs, worker counts and block
// partitions.
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
	"runtime"
	"sync"
)

// NoExclude disables row exclusion in SearchAppend.
const NoExclude int32 = -1

// Config tunes an Index. The zero value selects sensible defaults.
type Config struct {
	// Workers caps the number of concurrent scanners per query,
	// including the calling goroutine. Zero selects GOMAXPROCS. A query
	// never blocks waiting for helpers: busy helpers simply leave more
	// blocks to the caller.
	Workers int
	// BlockRows is the claim granularity of the scan in rows. Zero
	// selects a block spanning roughly 256 KiB of packed matrix,
	// clamped to [64, 8192] rows.
	BlockRows int
}

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

	blockRows int
	blocks    int
	workers   int

	states sync.Pool // *queryState
}

// New builds an index over a row-major matrix of rows×dim central
// embeddings, float32 as a trained model holds them or float64. The
// matrix is copied and normalized, each row's norm accumulated in
// float64; the source is not retained.
func New[F float32 | float64](vecs []F, rows, dim int, cfg Config) *Index {
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
	ix.configure(cfg)
	return ix
}

// configure applies Config defaults and sizes the block partition.
func (ix *Index) configure(cfg Config) {
	ix.workers = cfg.Workers
	if ix.workers <= 0 {
		ix.workers = runtime.GOMAXPROCS(0)
	}
	ix.blockRows = cfg.BlockRows
	if ix.blockRows <= 0 {
		ix.blockRows = (256 << 10) / (4 * ix.dim)
		if ix.blockRows < 64 {
			ix.blockRows = 64
		}
		if ix.blockRows > 8192 {
			ix.blockRows = 8192
		}
	}
	ix.blocks = (ix.rows + ix.blockRows - 1) / ix.blockRows
	ix.states.New = func() any { return newQueryState(ix) }
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
// full-vocabulary scan (ROADMAP 1(c)).
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
	sub.configure(Config{Workers: ix.workers, BlockRows: ix.blockRows})
	return sub
}

// Rows returns the number of indexed rows.
func (ix *Index) Rows() int { return ix.rows }

// Dim returns the embedding dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Blocks returns the number of scan blocks.
func (ix *Index) Blocks() int { return ix.blocks }

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
// broken by ascending ID. workers caps scan parallelism for this query
// (0 selects the index default); exclude suppresses one original ID
// (NoExclude for none). A zero or non-finite query has no defined
// neighbourhood and returns dst unchanged, like the serial reference.
//
// Steady state, the query allocates nothing: scratch comes from a pool
// sized on first use, and parallel scanning hands blocks to persistent
// helper goroutines rather than spawning new ones.
func (ix *Index) SearchAppend(dst []Result, query []float64, k, workers int, exclude int32) []Result {
	if k <= 0 || ix.rows == 0 {
		return dst
	}
	if len(query) != ix.dim {
		panic("index: query dimensionality mismatch")
	}
	qs := ix.states.Get().(*queryState)
	if !packQuery(qs.q, query) {
		ix.states.Put(qs)
		return dst
	}
	qs.next.Store(0)
	qs.wg.Add(ix.blocks)
	epoch := qs.epoch.Add(1) // odd: query active, helpers may enter

	if w := ix.clampWorkers(workers); w > 1 {
		offerHelp(qs, epoch, w-1)
	}
	qs.scan()
	qs.wg.Wait()
	qs.epoch.Add(1) // even: query done, new helpers bounce
	for qs.active.Load() != 0 {
		// A helper that entered just before the epoch flip exits as soon
		// as it sees no blocks left; wait it out before the state can be
		// handed to another query.
		runtime.Gosched()
	}
	dst = qs.selectTop(dst, k, ix.rowOf(exclude))
	ix.states.Put(qs)
	return dst
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

// clampWorkers resolves the per-query scanner budget.
func (ix *Index) clampWorkers(workers int) int {
	w := workers
	if w <= 0 {
		w = ix.workers
	}
	if w > ix.blocks {
		w = ix.blocks
	}
	if w < 1 {
		w = 1
	}
	return w
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

// scoreBlock writes the score of every row of block b into scores.
func (ix *Index) scoreBlock(q []float32, b int, scores []float32) {
	lo := b * ix.blockRows
	hi := min(lo+ix.blockRows, ix.rows)
	dim := ix.dim
	r := lo
	for ; r+4 <= hi; r += 4 {
		off := [4]int{r * dim, (r + 1) * dim, (r + 2) * dim, (r + 3) * dim}
		dot32x4(q, ix.packed, &off, (*[4]float32)(scores[r:r+4]))
	}
	for ; r < hi; r++ {
		scores[r] = dot32(q, ix.packed[r*dim:r*dim+dim])
	}
}
