package index

import "math"

// queryState is one slot of a pass: the packed query, the row-indexed
// score buffer the pass fills (4 bytes per indexed row), and the
// selection over it — a bounded heap, its pre-filter's histogram (8 KiB
// at any row count), and the rows that survive a sampled cut (4 bytes
// per row).
type queryState struct {
	q      []float32
	scores []float32
	top    topk
	counts [selectBuckets]int32
	cand   []int32
}

func newQueryState(ix *Index) *queryState {
	return &queryState{
		q:      make([]float32, ix.dim),
		scores: make([]float32, ix.rows),
		cand:   make([]int32, ix.rows),
	}
}

// batchState is the pooled scratch of the exact scan: one queryState per
// query of a pass, the pass's queries as the four-query kernel reads
// them, and which batch position each slot answers. Slots 1–3 are made
// on first use, so a state only ever used for single queries stays one
// slot's size.
type batchState struct {
	ix  *Index
	q   [4]*queryState
	qv  [4][]float32 // the slots' packed queries, padded with slot 0's
	qi  []float32    // qv chunk-interleaved (interleave4)
	who [4]int
}

func newBatchState(ix *Index) *batchState {
	return &batchState{ix: ix, q: [4]*queryState{newQueryState(ix)}, qi: make([]float32, 4*ix.dim)}
}

// slot returns slot j, making it on first use.
func (bs *batchState) slot(j int) *queryState {
	if bs.q[j] == nil {
		bs.q[j] = newQueryState(bs.ix)
	}
	return bs.q[j]
}

// pass scores the n packed queries in slots 0..n-1 against every row,
// four rows per kernel call, and appends each one's top k, skipping row
// exclude (-1 for none), to its dst. One query takes the one-query
// kernel (dot32x4); more take the four-query kernel (dot32q4), whose
// slots past n repeat slot 0's query. Both give every score the same
// bits.
func (bs *batchState) pass(dst [][]Result, n, k int, exclude int32) {
	ix, dim := bs.ix, bs.ix.dim
	r := 0
	if n == 1 {
		q, scores := bs.q[0].q, bs.q[0].scores
		for ; r+4 <= ix.rows; r += 4 {
			off := [4]int{r * dim, (r + 1) * dim, (r + 2) * dim, (r + 3) * dim}
			dot32x4(q, ix.packed, &off, (*[4]float32)(scores[r:r+4]))
		}
	} else {
		for j := range bs.qv {
			bs.qv[j] = bs.q[0].q
			if j < n {
				bs.qv[j] = bs.q[j].q
			}
		}
		if dim%4 == 0 {
			interleave4(bs.qi, &bs.qv)
		}
		var out [16]float32
		for ; r+4 <= ix.rows; r += 4 {
			off := [4]int{r * dim, (r + 1) * dim, (r + 2) * dim, (r + 3) * dim}
			dot32q4(&bs.qv, bs.qi, ix.packed, &off, &out)
			for j := 0; j < n; j++ {
				copy(bs.q[j].scores[r:r+4], out[4*j:4*j+4])
			}
		}
	}
	for ; r < ix.rows; r++ {
		row := ix.packed[r*dim : r*dim+dim]
		for j := 0; j < n; j++ {
			bs.q[j].scores[r] = dot32(bs.q[j].q, row)
		}
	}
	for j := 0; j < n; j++ {
		i := bs.who[j]
		dst[i] = bs.q[j].selectTop(dst[i], k, exclude, ix.ids)
	}
}

// selectBuckets divides the cosine range [-1, 1] for selectTop's pre-filter.
const selectBuckets = 2048

// bucketOf maps a score to its bucket, non-decreasingly: scores outside
// [-1, 1) clamp to the end buckets, NaN (no scan produces it) to 0.
func bucketOf(s float32) int {
	f := (s + 1) * (selectBuckets / 2)
	if !(f >= 0) {
		return 0
	}
	return int(min(f, selectBuckets-1))
}

// bucketLo[b] is the least float32 that bucketOf puts in bucket b or
// above, so for any score s but NaN, s >= bucketLo[b] exactly when
// bucketOf(s) >= b. Each is a binary search over the float32s in order.
var bucketLo = func() (lo [selectBuckets]float32) {
	// key orders float32s as uint32s: negatives reversed below the
	// positives, -0 just under +0.
	key := func(f float32) uint32 {
		b := math.Float32bits(f)
		if b>>31 != 0 {
			return ^b
		}
		return b | 1<<31
	}
	float := func(k uint32) float32 {
		if k>>31 != 0 {
			return math.Float32frombits(k &^ (1 << 31))
		}
		return math.Float32frombits(^k)
	}
	lo[0] = float32(math.Inf(-1))
	for b := 1; b < selectBuckets; b++ {
		l, h := key(-2), key(2) // bucketOf(-2) < b <= bucketOf(2)
		for l+1 < h {
			if m := l + (h-l)/2; bucketOf(float(m)) >= b {
				h = m
			} else {
				l = m
			}
		}
		lo[b] = float(h)
	}
	return lo
}()

// The sampled cut: every sampleStride-th score is histogrammed, and the
// cut is taken where the sample holds 2·⌈need/sampleStride⌉+2 rows —
// about twice the need once scaled up. It runs only over at least
// sampleMinRatio·need rows, where the sample holds twice that many.
const (
	sampleStride   = 8
	sampleMinRatio = 16
)

// selectTop appends to dst the k best rows of qs.scores, skipping row
// exclude (-1 for none), best first, each under its original ID (ids,
// nil for identity).
//
// Each row offered to the heap costs a mispredicted sift and most rows
// cannot win, so a count goes first: histogram the scores, walk the
// buckets from the top until they hold need = k selectable rows (k+1
// with an exclusion, which may be among them), offer only rows at or
// above that cut. A row below it scores strictly under k selectable
// rows, so no tie-break puts it in the top k; the rest meet the heap in
// row order.
//
// Over many rows, a sampled cut (survivors) first narrows the rows that
// histogram and heap see to those scoring at or above a bucket floor
// lo. When at least need rows survive, the k-th best selectable score
// is ≥ lo, so every top-k row survives, and the survivors are all the
// rows in the buckets the full histogram's walk visits: the walk stops
// at the same cut and the heap gets the same offers in the same order.
// With fewer survivors the full histogram runs instead.
func (qs *queryState) selectTop(dst []Result, k int, exclude int32, ids []int32) []Result {
	h := &qs.top
	h.reset(min(k, len(qs.scores)))
	need := int32(k)
	if exclude >= 0 {
		need++
	}
	if n, floor := qs.survivors(need); n >= int(need) {
		cand := qs.cand[:n]
		cut := qs.cut(floor, need, cand)
		for _, r := range cand {
			if s := qs.scores[r]; bucketOf(s) >= cut && r != exclude {
				h.offer(entry{score: s, row: r})
			}
		}
	} else {
		cut := 0
		if k < len(qs.scores) {
			clear(qs.counts[:])
			for _, s := range qs.scores {
				qs.counts[bucketOf(s)]++
			}
			cut = qs.walk(selectBuckets-1, need)
		}
		for r, s := range qs.scores {
			if bucketOf(s) >= cut && int32(r) != exclude {
				h.offer(entry{score: s, row: int32(r)})
			}
		}
	}
	n := len(h.e)
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, Result{})
	}
	// Popping a min-heap of the kept set yields worst-first: fill from
	// the back.
	for i := n - 1; i >= 0; i-- {
		e := h.pop()
		id := e.row
		if ids != nil {
			id = ids[id]
		}
		dst[base+i] = Result{ID: id, Score: e.score}
	}
	return dst
}

// walk returns the highest bucket at or below top at which qs.counts,
// summed from top down, reaches need — bucket 0 if it never does.
func (qs *queryState) walk(top int, need int32) int {
	cut := top
	for ; cut > 0 && qs.counts[cut] < need; cut-- {
		need -= qs.counts[cut]
	}
	return cut
}

// survivors runs the sampled cut: it histograms every sampleStride-th
// score, takes the bucket floor where the sample holds
// 2·⌈need/sampleStride⌉+2 rows, and compacts the rows scoring at or
// above the floor's least score, in row order, into qs.cand[:n]. It
// returns n and the floor, or n = 0 without compacting when the rows
// are too few for a sample or the sample reaches no floor above bucket
// 0.
func (qs *queryState) survivors(need int32) (n, floor int) {
	scores := qs.scores
	if len(scores) < sampleMinRatio*int(need) {
		return 0, 0
	}
	clear(qs.counts[:])
	top := 0
	for i := 0; i < len(scores); i += sampleStride {
		b := bucketOf(scores[i])
		qs.counts[b]++
		top = max(top, b)
	}
	floor = qs.walk(top, 2*((need+sampleStride-1)/sampleStride)+2)
	if floor == 0 {
		return 0, 0
	}
	lo := bucketLo[floor]
	cand := qs.cand[:len(scores)]
	for r, s := range scores {
		cand[n] = int32(r)
		n += b2i(s >= lo)
	}
	return n, floor
}

// cut is the full histogram's cut, taken over the survivors cand of a
// sampled cut at floor: every row in a bucket at or above the floor is
// among them, and the walk stops at or above it, since the survivors
// number at least need.
func (qs *queryState) cut(floor int, need int32, cand []int32) int {
	clear(qs.counts[floor:])
	top := floor
	for _, r := range cand {
		b := bucketOf(qs.scores[r])
		qs.counts[b]++
		top = max(top, b)
	}
	return qs.walk(top, need)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- bounded top-k heap -------------------------------------------------

// entry is one scored row.
type entry struct {
	score float32
	row   int32
}

// worse reports whether a ranks strictly below b in the total result
// order: lower score, or equal score and higher row. The exact scan's
// selection and every HNSW comparison share it, which is what makes
// their scores and ranks comparable bit for bit.
func worse(a, b entry) bool {
	return a.score < b.score || (a.score == b.score && a.row > b.row)
}

// topk is a bounded min-heap of the best k entries seen, rooted at the
// worst kept entry.
type topk struct {
	e []entry
	k int
}

func (h *topk) reset(k int) {
	h.k = k
	if cap(h.e) < k {
		h.e = make([]entry, 0, k)
	} else {
		h.e = h.e[:0]
	}
}

// offer inserts e if it ranks above the current worst kept entry.
func (h *topk) offer(e entry) {
	if len(h.e) < h.k {
		h.e = append(h.e, e)
		i := len(h.e) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(h.e[i], h.e[p]) {
				break
			}
			h.e[p], h.e[i] = h.e[i], h.e[p]
			i = p
		}
		return
	}
	if !worse(h.e[0], e) {
		return
	}
	h.e[0] = e
	h.siftDown(0)
}

// pop removes and returns the worst kept entry.
func (h *topk) pop() entry {
	root := h.e[0]
	n := len(h.e) - 1
	h.e[0] = h.e[n]
	h.e = h.e[:n]
	h.siftDown(0)
	return root
}

func (h *topk) siftDown(i int) {
	n := len(h.e)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && worse(h.e[l], h.e[s]) {
			s = l
		}
		if r < n && worse(h.e[r], h.e[s]) {
			s = r
		}
		if s == i {
			return
		}
		h.e[i], h.e[s] = h.e[s], h.e[i]
		i = s
	}
}
