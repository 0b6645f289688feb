// Approximate nearest-neighbour search over a packed Index: a
// Hierarchical Navigable Small World graph (Malkov & Yashunin, 2018)
// built from the same unit-normalized float32 rows the exact scan
// reads, answering Eq. (3) neighbourhood queries in time roughly
// logarithmic in the vocabulary instead of linear.
//
// Determinism. The exact index promises bit-identical results for a
// query, alone or in a batch; the ANN layer keeps that promise by
// construction:
//
//   - Node levels are a pure function of (seed, row) — a splitmix64
//     hash fed through the standard exponential level formula — so the
//     layer assignment never depends on timing or insertion order.
//   - The graph is built by inserting rows in ascending row order on a
//     single goroutine; the search beam and every neighbour-selection
//     pass compare entries under the same (score desc, row asc) total
//     order the exact scan uses, so equal-score choices are stable.
//   - Queries are sequential over the frozen graph, and so is the
//     exact-scan fallback; the `workers` argument is ignored.
//
// Two builds over the same rows therefore produce identical graphs,
// and a query returns bit-identical results however often it is
// repeated and whatever GOMAXPROCS is.
//
// Fallback rules. The graph cannot always meet the recall contract,
// and in each such case the query transparently falls back to the
// exact scan (reported to the caller, counted by the profiler's
// hostprof_index_ann_fallbacks_total):
//
//   - the graph is empty, or k reaches the graph size (the scan is
//     exact at equal cost);
//   - the graph holds no more rows than the search breadth ef (the
//     ANN walk would touch most of them anyway, without a guarantee);
//   - the search returned fewer than k rows (disconnected remnant or
//     over-excluded candidate set);
//   - some rows were rejected at insert (zero or non-finite vectors)
//     and the k-th ANN score is not positive — an unindexed zero row
//     scores exactly 0 in the exact order and could outrank it.
//
// Rows whose packed vector is zero or contains a non-finite value are
// rejected at insert: they have no usable direction to navigate by.
// They remain visible to the exact scan, which the fallback rule above
// accounts for.
package index

import (
	"math"
	"sync"
	"time"
)

// ANNConfig tunes the HNSW graph. The zero value selects defaults
// matching the HNSW paper's recommended operating point.
type ANNConfig struct {
	// M is the maximum neighbour count per node on layers above the
	// base; layer 0 keeps 2M. Default 16.
	M int
	// EfConstruction is the candidate-list breadth while inserting a
	// node. Larger builds a better graph, slower. Default 100.
	EfConstruction int
	// Ef is the default search breadth: the size of the dynamic
	// candidate list per query. Raised to at least k per query.
	// Default 128.
	Ef int
	// Seed feeds the deterministic level assignment. Two builds over
	// the same rows and seed produce identical graphs.
	Seed uint64
}

// maxANNLevel caps node levels; P(level > 24) at M=16 is ~2^-96.
const maxANNLevel = 24

func (c ANNConfig) withDefaults() ANNConfig {
	if c.M <= 1 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 100
	}
	if c.Ef <= 0 {
		c.Ef = 128
	}
	return c
}

// ANN is a frozen HNSW graph over an Index's packed rows. Queries are
// safe for concurrent use; the graph is immutable once BuildANN or
// LoadANN returns it.
type ANN struct {
	ix  *Index
	cfg ANNConfig
	m0  int     // layer-0 degree cap (2M)
	ml  float64 // level multiplier 1/ln(M)

	entry     int32 // highest-level node, -1 when the graph is empty
	maxLevel  int
	graphRows int // rows inserted into the graph
	unindexed int // rows rejected at insert (zero / non-finite)

	// Flattened adjacency. Row r's layer-l neighbour list lives in
	// nbr[nbrBase[r]+segOff(l) : +cnt[segBase[r]+l]]; capacity is m0
	// for layer 0 and M above. Rows rejected at insert get level -1
	// and zero-width segments.
	levels  []int8
	segBase []int32
	nbrBase []int32
	cnt     []int32
	nbr     []int32

	buildTime time.Duration // zero for a loaded graph
	states    sync.Pool     // *annState
}

// ANNStats describes a built graph, for metrics and diagnostics.
type ANNStats struct {
	Rows      int // rows in the underlying index
	GraphRows int // rows inserted into the graph
	Unindexed int // rows rejected at insert (zero / non-finite)
	Edges     int // directed edges over all layers
	M         int
	Ef        int
	BuildTime time.Duration
}

// BuildANN constructs an HNSW graph over the index's packed rows. The
// build is sequential and deterministic: same rows, same cfg, same
// graph. The index itself is unchanged and keeps serving exact scans.
// It is the only constructor of a graph's edges; LoadANN restores what
// an earlier BuildANN over the same rows produced.
func (ix *Index) BuildANN(cfg ANNConfig) *ANN {
	start := time.Now()
	b := newANNBuilder(ix.newANN(cfg))
	b.build()
	b.a.buildTime = time.Since(start)
	return b.a
}

// newANN lays out an edgeless graph over ix: node levels (-1 for rows
// rejected at insert) and the segment and neighbour bases they imply.
// All of it is a pure function of (cfg, rows), so BuildANN and LoadANN
// both start here and differ only in where cnt and nbr come from.
func (ix *Index) newANN(cfg ANNConfig) *ANN {
	cfg = cfg.withDefaults()
	a := &ANN{
		ix:    ix,
		cfg:   cfg,
		m0:    2 * cfg.M,
		ml:    1 / math.Log(float64(cfg.M)),
		entry: -1,
	}
	rows := ix.rows
	a.levels = make([]int8, rows)
	a.segBase = make([]int32, rows+1)
	a.nbrBase = make([]int32, rows+1)
	for r := 0; r < rows; r++ {
		segs, caps := 0, 0
		if a.insertable(int32(r)) {
			l := a.levelFor(r)
			a.levels[r] = int8(l)
			segs, caps = l+1, a.m0+l*cfg.M
		} else {
			a.levels[r] = -1
			a.unindexed++
		}
		a.segBase[r+1] = a.segBase[r] + int32(segs)
		a.nbrBase[r+1] = a.nbrBase[r] + int32(caps)
	}
	a.cnt = make([]int32, a.segBase[rows])
	a.nbr = make([]int32, a.nbrBase[rows])
	a.states.New = func() any { return newAnnState(a) }
	return a
}

// Stats returns the built graph's shape.
func (a *ANN) Stats() ANNStats {
	edges := 0
	for _, c := range a.cnt {
		edges += int(c)
	}
	return ANNStats{
		Rows:      a.ix.rows,
		GraphRows: a.graphRows,
		Unindexed: a.unindexed,
		Edges:     edges,
		M:         a.cfg.M,
		Ef:        a.cfg.Ef,
		BuildTime: a.buildTime,
	}
}

// BuiltWith reports whether the graph is what BuildANN(cfg) returns over
// its index, so a holder can reuse it instead of building again.
func (a *ANN) BuiltWith(cfg ANNConfig) bool { return a.cfg == cfg.withDefaults() }

// insertable reports whether a packed row carries a usable direction:
// finite values, not all zero.
func (a *ANN) insertable(row int32) bool {
	v := a.vec(row)
	nonzero := false
	for _, x := range v {
		if x != 0 {
			nonzero = true
		}
		// NaN and ±Inf both fail the self-subtraction identity.
		if x-x != 0 {
			return false
		}
	}
	return nonzero
}

// levelFor assigns a node level as a pure function of (seed, row):
// splitmix64 output mapped to (0,1], then the exponential level formula
// floor(-ln(u)·mL) of the HNSW paper.
func (a *ANN) levelFor(row int) int {
	z := a.cfg.Seed + (uint64(row)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := (float64(z>>11) + 1) / (1 << 53) // (0, 1]
	l := int(-math.Log(u) * a.ml)
	if l > maxANNLevel {
		l = maxANNLevel
	}
	return l
}

// vec returns row's packed unit vector.
func (a *ANN) vec(row int32) []float32 {
	d := a.ix.dim
	return a.ix.packed[int(row)*d : int(row)*d+d]
}

// capAt returns the neighbour capacity of a segment at layer l.
func (a *ANN) capAt(layer int) int {
	if layer == 0 {
		return a.m0
	}
	return a.cfg.M
}

// segOff returns the offset of layer l's segment within a row's
// neighbour block.
func (a *ANN) segOff(layer int) int32 {
	if layer == 0 {
		return 0
	}
	return int32(a.m0 + (layer-1)*a.cfg.M)
}

// neighborsOf returns row's layer-l neighbour list.
func (a *ANN) neighborsOf(row int32, layer int) []int32 {
	off := a.nbrBase[row] + a.segOff(layer)
	n := a.cnt[a.segBase[row]+int32(layer)]
	return a.nbr[off : off+n]
}

// greedy hill-climbs layer l from cur towards the query, following the
// (score desc, row asc) total order so equal-score plateaus resolve
// deterministically and the walk terminates.
func (a *ANN) greedy(q []float32, cur entry, layer int) entry {
	for {
		improved := false
		for _, nb := range a.neighborsOf(cur.row, layer) {
			cand := entry{score: dot32(q, a.vec(nb)), row: nb}
			if worse(cur, cand) {
				cur = cand
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayerFrom runs the best-first beam search of the HNSW paper at
// one layer from the entry points in st.seed, leaving the ef best
// entries found in st.beam, best first. A query seeds it with one row;
// an insert hands the whole previous layer's beam down (Algorithm 1),
// which matters for recall where a greedy path dead-ends early.
//
// Each step expands st.cur, the best unexpanded entry: its unvisited
// neighbours are scored four rows per kernel call — a score does not
// depend on the beam — and those that outrank the worst kept entry are
// merged in at once. The search ends when every entry kept is
// expanded: the paper's stop, "nearest candidate farther than the
// furthest result", because a candidate the beam dropped ranks below
// all it kept.
func (a *ANN) searchLayerFrom(q []float32, ef, layer int, st *annState) {
	st.nextEpoch()
	st.beam, st.expanded, st.cur = st.beam[:0], st.expanded[:0], 0
	add := st.add[:0]
	for _, e := range st.seed {
		if st.visited[e.row] != st.epoch {
			st.visited[e.row] = st.epoch
			add = append(add, e)
		}
	}
	st.add = add
	st.merge(ef)
	for st.cur < len(st.beam) {
		c := st.beam[st.cur].row
		st.expanded[st.cur] = true
		for st.cur < len(st.beam) && st.expanded[st.cur] {
			st.cur++
		}
		nbrs := a.neighborsOf(c, layer)
		fresh, n := st.fresh[:len(nbrs)], 0
		for _, nb := range nbrs {
			// Branch-free: whether a neighbour was seen is a coin toss.
			seen := st.visited[nb] == st.epoch
			st.visited[nb] = st.epoch
			fresh[n] = nb
			if !seen {
				n++
			}
		}
		fresh = fresh[:n]
		scores := st.scores[:n]
		a.scoreRows(q, fresh, scores)
		add := st.add[:0]
		for i, nb := range fresh {
			add = append(add, entry{score: scores[i], row: nb})
		}
		st.add = add
		st.merge(ef)
	}
}

// scoreRows writes q's similarity to each of rows into out, four rows
// per kernel call. The 1–3 rows left over go one at a time: the 4-row
// kernel with the last row repeated measured no faster.
func (a *ANN) scoreRows(q []float32, rows []int32, out []float32) {
	d := a.ix.dim
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		off := [4]int{int(rows[i]) * d, int(rows[i+1]) * d, int(rows[i+2]) * d, int(rows[i+3]) * d}
		dot32x4(q, a.ix.packed, &off, (*[4]float32)(out[i:i+4]))
	}
	for ; i < len(rows); i++ {
		out[i] = dot32(q, a.vec(rows[i]))
	}
}

// merge puts st.add — rows the beam does not hold — into the beam,
// which then holds the ef best of both, as admitting them one at a time
// would leave it. When the beam is full, newcomers that do not outrank
// its worst entry are dropped first. The rest are sorted best first (an
// expansion brings at most 2M, and seeds handed down arrive sorted),
// the worst of both fall off, and the kept ones are placed from the
// back, so each entry and its expanded mark move at most once. The
// best newcomer, if it lands above the cursor, becomes the best
// unexpanded entry.
func (st *annState) merge(ef int) {
	add := st.add
	if len(st.beam) == ef {
		worst, m := st.beam[ef-1], 0
		for _, e := range add {
			if worse(worst, e) {
				add[m] = e
				m++
			}
		}
		add = add[:m]
	}
	if len(add) == 0 {
		return
	}
	for i := 1; i < len(add); i++ {
		e, j := add[i], i
		for ; j > 0 && worse(add[j-1], e); j-- {
			add[j] = add[j-1]
		}
		add[j] = e
	}
	n := len(st.beam)
	l := min(ef, n+len(add))
	if l > n {
		st.beam = append(st.beam, add[:l-n]...) // placeholders, overwritten below
		st.expanded = append(st.expanded, make([]bool, l-n)...)
	}
	i, j := n-1, len(add)-1
	for drop := n + len(add) - l; drop > 0; drop-- {
		if i >= 0 && worse(st.beam[i], add[j]) {
			i--
		} else {
			j--
		}
	}
	k := l - 1
	for ; j >= 0; k-- {
		if i >= 0 && worse(st.beam[i], add[j]) {
			st.beam[k], st.expanded[k] = st.beam[i], st.expanded[i]
			i--
		} else {
			st.beam[k], st.expanded[k] = add[j], false
			j--
		}
	}
	st.cur = min(st.cur, k+1)
}

// annBuilder is what one BuildANN call knows beyond the graph it grows,
// dropped when the call returns. A back-link into a full neighbour list
// prunes that list with Algorithm 4 (selectNeighbors) over the list plus
// the one new candidate; remembering what the previous prune computed
// lets the next one re-decide only what the newcomer can change.
type annBuilder struct {
	a  *ANN
	st *annState // the beam search's scratch, as a query takes it

	// score[i] is the similarity of the edge at a.nbr[i] to the row that
	// owns the segment, kept from when the edge was made: the search's
	// score for a forward link, the same number for its back-link (dot32
	// is commutative bit for bit).
	score []float32
	// ndiv[seg] is how many leading entries of a segment Algorithm 4
	// kept as diverse when it last selected the list — its output is the
	// diverse candidates in rank order, then the pruned ones filling up
	// in rank order — or -1 for a list no selection has overflowed yet,
	// whose entries sit in arrival order. A classified list is full and
	// stays full.
	ndiv []int32

	sel   []entry // forward-link selection
	cands []entry // an unclassified list and its newcomer, sorted
	div   []entry // a re-decided list: its diverse run, then the whole list
	fill  []entry // candidates a selection pruned, in rank order
	added []entry // the newcomer and the entries it let be promoted

	took pruneBranches
}

// pruneBranches counts the ways a back-link into a full list went, so a
// test can show the reference build was compared against each.
type pruneBranches struct {
	unclassified int // first prune of a list: sorted and selected whole
	stopped      int // a full diverse run outranks x: never examined
	pruned       int // x fails against a diverse entry above it: joins the fill
	kept         int // x kept, every diverse entry below it still is
	demoted      int // prunes where x, or an entry x promoted, demoted a diverse entry
	promoted     int // entries a demotion let back into the diverse run
}

func newANNBuilder(a *ANN) *annBuilder {
	b := &annBuilder{
		a:     a,
		st:    newAnnState(a),
		score: make([]float32, len(a.nbr)),
		ndiv:  make([]int32, len(a.cnt)),
	}
	for i := range b.ndiv {
		b.ndiv[i] = -1
	}
	return b
}

// build inserts every insertable row in ascending row order.
func (b *annBuilder) build() {
	for r, l := range b.a.levels {
		if l < 0 {
			continue
		}
		b.insert(int32(r), int(l))
		b.a.graphRows++
	}
}

// diverse reports whether c is closer to the node being linked than to
// every entry of kept — Algorithm 4's test for one candidate.
func (b *annBuilder) diverse(c entry, kept []entry) bool {
	cv := b.a.vec(c.row)
	for _, s := range kept {
		if dot32(cv, b.a.vec(s.row)) > c.score {
			return false
		}
	}
	return true
}

// selectNeighbors applies the diversity heuristic of HNSW Algorithm 4
// to cands (sorted best-first, scores relative to the node being
// linked): a candidate is kept only if it is closer to the query node
// than to every already-kept neighbour, then remaining slots are filled
// with the pruned candidates in rank order (keepPruned), preserving
// connectivity on uniform data. The result is appended to sel; the
// second result is how many leading entries are the diverse ones, -1
// when cands fit without a selection.
func (b *annBuilder) selectNeighbors(cands []entry, max int, sel []entry) ([]entry, int) {
	sel = sel[:0]
	if len(cands) <= max {
		return append(sel, cands...), -1
	}
	b.fill = b.fill[:0]
	for _, c := range cands {
		if len(sel) == max {
			break
		}
		if b.diverse(c, sel) {
			sel = append(sel, c)
		} else {
			b.fill = append(b.fill, c)
		}
	}
	ndiv := len(sel)
	return append(sel, b.fill[:max-ndiv]...), ndiv
}

// setList makes list row's layer-l neighbours, ndiv of them diverse.
func (b *annBuilder) setList(row int32, layer int, list []entry, ndiv int) {
	a := b.a
	seg := a.segBase[row] + int32(layer)
	off := a.nbrBase[row] + a.segOff(layer)
	for i, e := range list {
		a.nbr[off+int32(i)] = e.row
		b.score[off+int32(i)] = e.score
	}
	a.cnt[seg] = int32(len(list))
	b.ndiv[seg] = int32(ndiv)
}

// linkBack adds the reverse edge nb→r, of similarity score, pruning nb's
// neighbour list with the same diversity heuristic when it overflows.
// The list it leaves is the one selectNeighbors returns over the old
// list and r, sorted: a candidate's class depends only on the diverse
// entries ranked above it, and whatever a selection drops was pruned or
// ranks below all it kept, so the remembered classes are what a fresh
// run over the old list alone would find, and r can only change what
// ranks below r.
func (b *annBuilder) linkBack(nb, r int32, score float32, layer int) {
	a := b.a
	seg := a.segBase[nb] + int32(layer)
	off := a.nbrBase[nb] + a.segOff(layer)
	max := a.capAt(layer)
	if n := a.cnt[seg]; int(n) < max {
		a.nbr[off+n], b.score[off+n] = r, score
		a.cnt[seg] = n + 1
		return
	}
	rows, scores := a.nbr[off:off+int32(max)], b.score[off:off+int32(max)]
	at := func(i int) entry { return entry{score: scores[i], row: rows[i]} }
	x := entry{score: score, row: r}
	nd := int(b.ndiv[seg])
	if nd < 0 {
		b.took.unclassified++
		b.cands = b.cands[:0]
		for i := range rows {
			b.cands = append(b.cands, at(i))
		}
		b.cands = append(b.cands, x)
		sortEntries(b.cands)
		b.div, nd = b.selectNeighbors(b.cands, max, b.div)
		b.setList(nb, layer, b.div, nd)
		return
	}
	if nd == max && worse(x, at(max-1)) {
		b.took.stopped++
		return // max diverse entries outrank x: the selection stops before it
	}
	// x answers to the diverse entries ranked above it.
	xv := a.vec(r)
	p := 0
	for ; p < nd && worse(x, at(p)); p++ {
		if dot32(xv, a.vec(rows[p])) > score {
			// Pruned, so nothing else changes class: x joins the fill in
			// rank order and the fill's last entry falls off.
			b.took.pruned++
			i := max
			for i > nd && worse(at(i-1), x) {
				i--
			}
			if i < max {
				insertEntry(rows, scores, i, x)
			}
			return
		}
	}
	// x is kept, so the diverse entries below it answer to x as well,
	// until max are kept.
	j := p
	for j < nd && j+1 < max && dot32(a.vec(rows[j]), xv) <= scores[j] {
		j++
	}
	if j == nd || j+1 == max {
		// They all still are, so every pruned entry still has the diverse
		// entry above it that pruned it: x slots in at its rank and the
		// list's last entry falls off.
		b.took.kept++
		insertEntry(rows, scores, p, x)
		if nd < max {
			b.ndiv[seg] = int32(nd + 1)
		}
		return
	}
	// x demotes the diverse entry at j. Below it the remembered classes
	// no longer hold on their own: a pruned entry may have lost the one
	// entry that pruned it, so it is checked against everything kept, and
	// once promoted it is news to the diverse entries below it, which are
	// checked against x and every promoted entry (they already cleared
	// the rest). Both runs are in rank order; merge them from j down.
	b.took.demoted++
	b.div = b.div[:0]
	for i := 0; i < p; i++ {
		b.div = append(b.div, at(i))
	}
	b.div = append(b.div, x)
	for i := p; i < j; i++ {
		b.div = append(b.div, at(i))
	}
	b.fill = b.fill[:0]
	f := nd
	for ; f < max && worse(at(j), at(f)); f++ {
		b.fill = append(b.fill, at(f))
	}
	b.fill = append(b.fill, at(j))
	b.added = append(b.added[:0], x)
	for i := j + 1; len(b.div) < max && (i < nd || f < max); {
		if f == max || (i < nd && worse(at(f), at(i))) {
			if c := at(i); b.diverse(c, b.added) {
				b.div = append(b.div, c)
			} else {
				b.fill = append(b.fill, c)
			}
			i++
		} else {
			if c := at(f); b.diverse(c, b.div) {
				b.took.promoted++
				b.div = append(b.div, c)
				b.added = append(b.added, c)
			} else {
				b.fill = append(b.fill, c)
			}
			f++
		}
	}
	nd = len(b.div)
	b.div = append(b.div, b.fill[:max-nd]...)
	b.setList(nb, layer, b.div, nd)
}

// insertEntry puts x at position i of a full neighbour list, shifting
// the entries from i down one place; the last one falls off.
func insertEntry(rows []int32, scores []float32, i int, x entry) {
	copy(rows[i+1:], rows[i:])
	copy(scores[i+1:], scores[i:])
	rows[i], scores[i] = x.row, x.score
}

// sortEntries orders a small slice best-first under the shared total
// order (insertion sort: candidate lists are at most m0+1 long).
func sortEntries(e []entry) {
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && worse(e[j], x) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

// insert adds row r at level lr to the graph (HNSW Algorithm 1).
func (b *annBuilder) insert(r int32, lr int) {
	a, st := b.a, b.st
	if a.entry < 0 {
		a.entry = r
		a.maxLevel = lr
		return
	}
	q := a.vec(r)
	cur := entry{score: dot32(q, a.vec(a.entry)), row: a.entry}
	for layer := a.maxLevel; layer > lr; layer-- {
		cur = a.greedy(q, cur, layer)
	}
	top := lr
	if top > a.maxLevel {
		top = a.maxLevel
	}
	st.seed = append(st.seed[:0], cur)
	for layer := top; layer >= 0; layer-- {
		a.searchLayerFrom(q, a.cfg.EfConstruction, layer, st)
		cands := st.beam
		var ndiv int
		b.sel, ndiv = b.selectNeighbors(cands, a.capAt(layer), b.sel)
		b.setList(r, layer, b.sel, ndiv)
		for _, e := range b.sel {
			b.linkBack(e.row, r, e.score, layer)
		}
		// The whole candidate set seeds the next layer down (Alg. 1).
		st.seed = append(st.seed[:0], cands...)
	}
	if lr > a.maxLevel {
		a.entry = r
		a.maxLevel = lr
	}
}

// Search returns the k rows most similar to query under the ANN graph
// (falling back to the exact scan per the package rules), allocating
// the result slice. Hot paths should use SearchAppend.
func (a *ANN) Search(query []float64, k int) []Result {
	res, _ := a.SearchAppend(nil, query, k, 0, 0, NoExclude)
	return res
}

// SearchAppend appends the approximate top-k rows for query to dst in
// the exact scan's result order — (score desc, ID asc), scores
// bit-identical to the exact index's for the same rows — and reports
// whether the query was answered by the exact-scan fallback. ef
// overrides the configured search breadth (0 keeps the default; always
// raised to at least k). workers is passed to the exact fallback, which
// ignores it. exclude suppresses one original ID. A zero or non-finite
// query has no defined neighbourhood and returns dst unchanged.
//
// Steady state the ANN path allocates nothing beyond dst growth:
// scratch comes from a pool sized on first use.
func (a *ANN) SearchAppend(dst []Result, query []float64, k, ef, workers int, exclude int32) ([]Result, bool) {
	if k <= 0 || a.ix.rows == 0 {
		return dst, false
	}
	if len(query) != a.ix.dim {
		panic("index: query dimensionality mismatch")
	}
	if ef <= 0 {
		ef = a.cfg.Ef
	}
	if ef < k {
		ef = k
	}
	if exclude != NoExclude && ef < k+1 {
		ef = k + 1 // room to drop the excluded row
	}
	if a.graphRows == 0 || k >= a.graphRows || a.graphRows <= ef {
		return a.ix.SearchAppend(dst, query, k, workers, exclude), true
	}
	st := a.states.Get().(*annState)
	if !packQuery(st.q, query) {
		a.states.Put(st)
		return dst, false
	}
	cur := entry{score: dot32(st.q, a.vec(a.entry)), row: a.entry}
	for layer := a.maxLevel; layer > 0; layer-- {
		cur = a.greedy(st.q, cur, layer)
	}
	st.seed = append(st.seed[:0], cur)
	a.searchLayerFrom(st.q, ef, 0, st)
	exRow := a.ix.rowOf(exclude)
	base := len(dst)
	kept := 0
	for _, e := range st.beam {
		if e.row == exRow {
			continue
		}
		id := e.row
		if a.ix.ids != nil {
			id = a.ix.ids[id]
		}
		dst = append(dst, Result{ID: id, Score: e.score})
		if kept++; kept == k {
			break
		}
	}
	a.states.Put(st)
	if kept < k || (a.unindexed > 0 && dst[len(dst)-1].Score <= 0) {
		// Candidate set too small to meet recall (or an unindexed zero
		// row could outrank the tail): answer exactly instead.
		return a.ix.SearchAppend(dst[:base], query, k, workers, exclude), true
	}
	return dst, false
}

// annState is the pooled scratch of one ANN query; a build walks the
// growing graph with one of its own.
type annState struct {
	q        []float32
	visited  []uint32
	epoch    uint32
	beam     []entry // the ef best entries found, best first
	expanded []bool  // expanded[i]: beam[i]'s neighbours were visited
	cur      int     // index of the best unexpanded beam entry
	fresh    []int32 // an expansion's unvisited neighbours
	scores   []float32
	add      []entry // entries merging into the beam
	seed     []entry // entry points handed into searchLayerFrom
}

func newAnnState(a *ANN) *annState {
	return &annState{
		q:       make([]float32, a.ix.dim),
		visited: make([]uint32, a.ix.rows),
		fresh:   make([]int32, a.m0),
		scores:  make([]float32, a.m0),
	}
}

// nextEpoch advances the visited stamp, clearing the array on the
// (effectively unreachable) wraparound.
func (st *annState) nextEpoch() {
	st.epoch++
	if st.epoch == 0 {
		for i := range st.visited {
			st.visited[i] = 0
		}
		st.epoch = 1
	}
}
