package index

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The reference build: insert, linkBack, selectNeighbors and addLink as
// they stood before back-link pruning became incremental, moved here
// verbatim. Every prune re-scores its whole neighbour list and re-runs
// Algorithm 4 over it from nothing, so it remembers nothing the product
// build could get wrong; refBuildANN's graph is the oracle BuildANN's
// must equal array for array. Its layer search is refSearchLayerFrom,
// the two-heap beam search as it stood before the sorted beam, so the
// oracle shares no search code with the product either.

// refState is the scratch the two-heap search kept: a visited stamp per
// row, the beam as a bounded min-heap, the expansion queue as a
// max-heap, and the drained beam.
type refState struct {
	visited []uint32
	epoch   uint32
	res     topk     // beam of the best ef entries
	cand    frontier // best-first expansion queue
	scratch []entry  // drained beam, best first
	seed    []entry  // entry points handed into refSearchLayerFrom
}

func newRefState(a *ANN) *refState {
	return &refState{visited: make([]uint32, a.ix.rows)}
}

// refSearchLayerFrom is the best-first beam search of the HNSW paper at
// one layer, seeded with st.seed, leaving the ef best entries found in
// st.res.
func refSearchLayerFrom(a *ANN, q []float32, ef, layer int, st *refState) {
	st.epoch++
	st.res.reset(ef)
	st.cand.reset()
	for _, e := range st.seed {
		if st.visited[e.row] == st.epoch {
			continue
		}
		st.visited[e.row] = st.epoch
		st.cand.push(e)
		st.res.offer(e)
	}
	for st.cand.len() > 0 {
		c := st.cand.pop()
		if len(st.res.e) >= ef && worse(c, st.res.e[0]) {
			break // best frontier candidate ranks below the worst kept
		}
		for _, nb := range a.neighborsOf(c.row, layer) {
			if st.visited[nb] == st.epoch {
				continue
			}
			st.visited[nb] = st.epoch
			en := entry{score: dot32(q, a.vec(nb)), row: nb}
			if len(st.res.e) < ef || !worse(en, st.res.e[0]) {
				st.cand.push(en)
				st.res.offer(en)
			}
		}
	}
}

// drainBestFirst empties st.res into st.scratch, best entry first.
func (st *refState) drainBestFirst() []entry {
	n := len(st.res.e)
	if cap(st.scratch) < n {
		st.scratch = make([]entry, n)
	}
	st.scratch = st.scratch[:n]
	for i := n - 1; i >= 0; i-- {
		st.scratch[i] = st.res.pop()
	}
	return st.scratch
}

// frontier is a max-heap of entries under the shared total order: pop
// returns the best (highest score, lowest row) entry.
type frontier struct {
	e []entry
}

func (f *frontier) reset()   { f.e = f.e[:0] }
func (f *frontier) len() int { return len(f.e) }

func (f *frontier) push(e entry) {
	f.e = append(f.e, e)
	i := len(f.e) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(f.e[p], f.e[i]) {
			break
		}
		f.e[p], f.e[i] = f.e[i], f.e[p]
		i = p
	}
}

func (f *frontier) pop() entry {
	root := f.e[0]
	n := len(f.e) - 1
	f.e[0] = f.e[n]
	f.e = f.e[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && worse(f.e[s], f.e[l]) {
			s = l
		}
		if r < n && worse(f.e[s], f.e[r]) {
			s = r
		}
		if s == i {
			return root
		}
		f.e[i], f.e[s] = f.e[s], f.e[i]
		i = s
	}
}

// refBuilder carries the three scratch lists the old build kept in the
// pooled query state.
type refBuilder struct {
	a     *ANN
	sel   []entry // forward-link selection
	sel2  []entry // back-link pruning selection
	prune []entry // back-link candidate list
}

func refBuildANN(ix *Index, cfg ANNConfig) *ANN {
	a := ix.newANN(cfg)
	rb := &refBuilder{a: a}
	st := newRefState(a)
	for r, l := range a.levels {
		if l < 0 {
			continue
		}
		rb.insert(int32(r), int(l), st)
		a.graphRows++
	}
	return a
}

// addLink appends a directed edge from→to at layer l, reporting false
// when the segment is full.
func (rb *refBuilder) addLink(from, to int32, layer int) bool {
	a := rb.a
	seg := a.segBase[from] + int32(layer)
	c := a.cnt[seg]
	if int(c) >= a.capAt(layer) {
		return false
	}
	a.nbr[a.nbrBase[from]+a.segOff(layer)+c] = to
	a.cnt[seg] = c + 1
	return true
}

// selectNeighbors applies the diversity heuristic of HNSW Algorithm 4
// to cands (sorted best-first, scores relative to the node being
// linked): a candidate is kept only if it is closer to the query node
// than to every already-kept neighbour, then remaining slots are filled
// with the pruned candidates in rank order (keepPruned), preserving
// connectivity on uniform data. The result is appended to sel.
func (rb *refBuilder) selectNeighbors(cands []entry, max int, sel []entry) []entry {
	a := rb.a
	sel = sel[:0]
	if len(cands) <= max {
		return append(sel, cands...)
	}
	for _, c := range cands {
		if len(sel) == max {
			break
		}
		cv := a.vec(c.row)
		diverse := true
		for _, s := range sel {
			if dot32(cv, a.vec(s.row)) > c.score {
				diverse = false
				break
			}
		}
		if diverse {
			sel = append(sel, c)
		}
	}
	for _, c := range cands {
		if len(sel) == max {
			break
		}
		kept := false
		for _, s := range sel {
			if s.row == c.row {
				kept = true
				break
			}
		}
		if !kept {
			sel = append(sel, c)
		}
	}
	return sel
}

// linkBack adds the reverse edge nb→r, pruning nb's neighbour list with
// the same diversity heuristic when it overflows.
func (rb *refBuilder) linkBack(nb, r int32, layer int) {
	a := rb.a
	if rb.addLink(nb, r, layer) {
		return
	}
	nv := a.vec(nb)
	rb.prune = rb.prune[:0]
	for _, o := range a.neighborsOf(nb, layer) {
		rb.prune = append(rb.prune, entry{score: dot32(nv, a.vec(o)), row: o})
	}
	rb.prune = append(rb.prune, entry{score: dot32(nv, a.vec(r)), row: r})
	sortEntries(rb.prune)
	rb.sel2 = rb.selectNeighbors(rb.prune, a.capAt(layer), rb.sel2)
	off := a.nbrBase[nb] + a.segOff(layer)
	for i, e := range rb.sel2 {
		a.nbr[off+int32(i)] = e.row
	}
	a.cnt[a.segBase[nb]+int32(layer)] = int32(len(rb.sel2))
}

// insert adds row r at level lr to the graph (HNSW Algorithm 1).
func (rb *refBuilder) insert(r int32, lr int, st *refState) {
	a := rb.a
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
		refSearchLayerFrom(a, q, a.cfg.EfConstruction, layer, st)
		cands := st.drainBestFirst()
		rb.sel = rb.selectNeighbors(cands, a.capAt(layer), rb.sel)
		for _, e := range rb.sel {
			rb.addLink(r, e.row, layer)
			rb.linkBack(e.row, r, layer)
		}
		// The whole candidate set seeds the next layer down (Alg. 1).
		st.seed = append(st.seed[:0], cands...)
	}
	if lr > a.maxLevel {
		a.entry = r
		a.maxLevel = lr
	}
}

// pinCorpus is the seeded clustered 3.7K×64 matrix — bench/'s world in
// rows and width — that the cross-commit pin and the branch census run
// over.
func pinCorpus() *Index {
	const rows, dim = 3749, 64
	return New(clusteredMatrix(rand.New(rand.NewSource(23)), rows, dim, 40, 0.25), rows, dim, Config{})
}

// duplicatesAndZeros is 1.5K random rows of width 8, three of them zero
// and every seventh a copy of an earlier row, so scores tie exactly.
func duplicatesAndZeros(seed int) *Index {
	const rows, dim = 1500, 8
	vecs := randMatrix(rand.New(rand.NewSource(int64(100+seed))), rows, dim, 3, 700, 1499)
	for r := 5; r < rows; r += 7 {
		copy(vecs[r*dim:(r+1)*dim], vecs[(r/2)*dim:(r/2+1)*dim])
	}
	return New(vecs, rows, dim, Config{BlockRows: 64})
}

// TestANNBuildPinnedAcrossCommits holds BuildANN to the graph the commit
// before the incremental prune built over pinCorpus: the sha256 below
// was computed there, so the reference above cannot drift together with
// the product build and keep agreeing with it.
func TestANNBuildPinnedAcrossCommits(t *testing.T) {
	const parent = "7a0bd097ed0a21853c076f380eff2c3d6b08a8e53770fdcce37a7feb68084954"
	if got := fmt.Sprintf("%x", sha256.Sum256(pinCorpus().BuildANN(ANNConfig{}).AppendBinary(nil))); got != parent {
		t.Fatalf("encoded graph sha256 %s, the parent commit built %s", got, parent)
	}
}

// assertBuildMatchesReference requires BuildANN's graph to be the
// reference build's, array for array.
func assertBuildMatchesReference(t *testing.T, ix *Index, cfg ANNConfig) {
	t.Helper()
	if d := graphDiff(ix.BuildANN(cfg), refBuildANN(ix, cfg)); d != "" {
		t.Fatalf("BuildANN differs from the reference build in %s", d)
	}
}

// TestANNBuildEqualsReference runs the oracle over the corpora that
// bite: the clustered bench-sized world at defaults, random rows with
// duplicates and zero rows at small M and EfConstruction (short lists,
// constant pruning, exact score ties), a width below the kernel's four
// lanes, lists longer than a signed byte counts, and a corpus large
// enough for several upper layers.
func TestANNBuildEqualsReference(t *testing.T) {
	t.Run("clustered 3.7Kx64 defaults", func(t *testing.T) {
		assertBuildMatchesReference(t, pinCorpus(), ANNConfig{})
	})
	for _, m := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("random duplicates zeros M%d", m), func(t *testing.T) {
			assertBuildMatchesReference(t, duplicatesAndZeros(m), ANNConfig{M: m, EfConstruction: 3 * m, Seed: uint64(m)})
		})
	}
	t.Run("dim 3", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		ix := New(clusteredMatrix(rng, 2000, 3, 12, 0.2), 2000, 3, Config{})
		assertBuildMatchesReference(t, ix, ANNConfig{Seed: 3})
	})
	t.Run("M 70", func(t *testing.T) {
		// Every row shares one axis and owns another, so to the rows
		// leaning hardest on the shared axis all neighbours are diverse:
		// m0 = 140 of them, a count past int8.
		const rows, dim = 360, 361
		rng := rand.New(rand.NewSource(70))
		vecs := make([]float64, rows*dim)
		for r := 0; r < rows; r++ {
			vecs[r*dim], vecs[r*dim+1+r] = 0.5+rng.Float64(), 1
		}
		ix, cfg := New(vecs, rows, dim, Config{}), ANNConfig{M: 70, EfConstruction: 150, Seed: 70}
		b := newANNBuilder(ix.newANN(cfg))
		b.build()
		if most := slices.Max(b.ndiv); most <= math.MaxInt8 {
			t.Fatalf("longest diverse run %d, the case wants one past %d", most, math.MaxInt8)
		}
		if d := graphDiff(b.a, refBuildANN(ix, cfg)); d != "" {
			t.Fatalf("BuildANN differs from the reference build in %s", d)
		}
	})
	t.Run("clustered 20Kx64", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a 20K x 64 graph twice")
		}
		rng := rand.New(rand.NewSource(20))
		ix := New(clusteredMatrix(rng, 20_000, 64, 200, 0.25), 20_000, 64, Config{})
		assertBuildMatchesReference(t, ix, ANNConfig{Seed: 20})
	})
}

// TestANNBuildTakesEveryPruneBranch is what makes the equality above
// mean something: over pinCorpus every way a back-link prune can go is
// taken, so each was compared against the reference and none is covered
// by luck. The promotion branch is the one a first draft got wrong — a
// promoted entry can demote diverse entries ranked below it. At the
// default M no list of pinCorpus is ever diverse throughout with the
// newcomer ranked below all of it, so that branch is shown on the M 2
// corpus of the table above, where lists are two and four long.
func TestANNBuildTakesEveryPruneBranch(t *testing.T) {
	census := func(ix *Index, cfg ANNConfig) pruneBranches {
		b := newANNBuilder(ix.newANN(cfg))
		b.build()
		t.Logf("M %d: %+v", b.a.cfg.M, b.took)
		return b.took
	}
	took := census(pinCorpus(), ANNConfig{})
	took.stopped = census(duplicatesAndZeros(2), ANNConfig{M: 2, EfConstruction: 6, Seed: 2}).stopped
	for name, n := range map[string]int{
		"first prune of an unclassified list": took.unclassified,
		"stop at max diverse":                 took.stopped,
		"x pruned":                            took.pruned,
		"x kept with no change":               took.kept,
		"demotion":                            took.demoted,
		"promotion":                           took.promoted,
	} {
		if n == 0 {
			t.Errorf("no back-link prune took the branch %q", name)
		}
	}
}

// assertSearchMatchesReference runs searchLayerFrom and the two-heap
// refSearchLayerFrom from the same seeds and requires the same entries
// in the same order and the same rows visited.
func assertSearchMatchesReference(t *testing.T, a *ANN, q []float32, seeds []entry, ef, layer int, st *annState, ref *refState) {
	t.Helper()
	st.seed, ref.seed = append(st.seed[:0], seeds...), append(ref.seed[:0], seeds...)
	a.searchLayerFrom(q, ef, layer, st)
	refSearchLayerFrom(a, q, ef, layer, ref)
	if want := ref.drainBestFirst(); !slices.Equal(st.beam, want) {
		t.Fatalf("layer %d ef %d, %d seeds: beam %v, reference %v", layer, ef, len(seeds), st.beam, want)
	}
	for r := range st.visited {
		if (st.visited[r] == st.epoch) != (ref.visited[r] == ref.epoch) {
			t.Fatalf("layer %d ef %d, %d seeds: row %d visited by one search only", layer, ef, len(seeds), r)
		}
	}
}

// TestANNSearchEqualsReference holds the sorted beam to the two-heap
// search it replaced, beam for beam: on queries walked down from the
// entry point at ef k, k+1 (what SearchAppend raises k to under an
// exclusion), 128 and 256, and on build-style calls that hand one
// layer's whole beam down as the next layer's seeds — seeds beyond ef
// included — over the clustered bench-sized world, random rows with
// exact score ties, and a width below the kernel's four lanes.
func TestANNSearchEqualsReference(t *testing.T) {
	const k = 10
	corpora := []struct {
		name string
		ix   *Index
		cfg  ANNConfig
	}{
		{"clustered 3.7Kx64", pinCorpus(), ANNConfig{}},
		{"random duplicates zeros", duplicatesAndZeros(4), ANNConfig{M: 4, EfConstruction: 12, Seed: 4}},
		{"dim 3", New(clusteredMatrix(rand.New(rand.NewSource(3)), 2000, 3, 12, 0.2), 2000, 3, Config{}), ANNConfig{Seed: 3}},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			a := c.ix.BuildANN(c.cfg)
			st, ref := newAnnState(a), newRefState(a)
			rng := rand.New(rand.NewSource(31))
			q := make([]float32, c.ix.Dim())
			for trial := 0; trial < 30; trial++ {
				if !packQuery(q, randMatrix(rng, 1, c.ix.Dim())) {
					continue
				}
				cur := entry{score: dot32(q, a.vec(a.entry)), row: a.entry}
				for layer := a.maxLevel; layer > 0; layer-- {
					cur = a.greedy(q, cur, layer)
				}
				for _, ef := range []int{k, k + 1, 128, 256} {
					assertSearchMatchesReference(t, a, q, []entry{cur}, ef, 0, st, ref)
				}
				seeds := []entry{{score: dot32(q, a.vec(a.entry)), row: a.entry}}
				for layer := a.maxLevel; layer >= 0; layer-- {
					ef := []int{a.cfg.EfConstruction, k, 256}[(trial+layer)%3]
					assertSearchMatchesReference(t, a, q, seeds, ef, layer, st, ref)
					seeds = append(seeds[:0], st.beam...)
				}
			}
		})
	}
}
