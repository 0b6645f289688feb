package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hostprof/internal/index"
	"hostprof/internal/obs"
	"hostprof/internal/obs/tracer"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// Aggregation selects the function g that folds the embeddings of a
// session's hostnames into a single session representation s (Section 4.1
// leaves g as a design choice; the ablation benches compare them).
type Aggregation int

// Supported aggregation functions.
const (
	// AggMean averages host embeddings (the default).
	AggMean Aggregation = iota
	// AggSum sums host embeddings.
	AggSum
	// AggIDF weights each host embedding by log(total/count), damping
	// ubiquitous hosts such as CDNs and portals.
	AggIDF
)

// ProfilerConfig tunes the session-profiling algorithm.
type ProfilerConfig struct {
	// N is the number of nearest hostnames retrieved around the session
	// representation (paper: N = 1000).
	N int
	// Agg is the aggregation function g. Default AggMean.
	Agg Aggregation
	// SkipDedup keeps repeat visits of a hostname within the session.
	// By default they are dropped, keeping the first, as the paper does
	// to damp interactive services (Section 4.1).
	SkipDedup bool
	// ANN routes Eq. (3) neighbourhood queries through an HNSW graph
	// over the packed rows instead of the exact scan — sublinear in the
	// vocabulary, opt-in, with a transparent exact-scan fallback when
	// the graph cannot meet its recall contract (see index.ANN). The
	// graph belongs to the model: profilers over one model share it, and
	// one a snapshot carried for the model is loaded instead of built.
	ANN bool
	// ANNEf is the ANN search breadth (dynamic candidate list size);
	// 0 selects the index default (128). Larger is slower and more
	// accurate.
	ANNEf int
	// ANNM is the ANN graph degree; 0 selects the index default (16).
	ANNM int
	// Metrics, when non-nil, receives the hostprof_index_* series: build
	// time and size gauges at construction, query counters and latency
	// per neighbourhood scan.
	Metrics *obs.Registry
	// Tracer, when non-nil, records profile.index/profile.batch child
	// spans under request contexts that carry an active trace.
	Tracer *tracer.Tracer
}

// Profiler turns hostname sessions into category vectors using a trained
// embedding model plus a partial ontology — the complete pipeline of
// paper Section 4.1.
type Profiler struct {
	model *Model
	ont   *ontology.Ontology
	cfg   ProfilerConfig

	// labels is the ontology's CSR label matrix as of NewProfiler — one
	// immutable snapshot per model generation, shared with the ad
	// selector — and labelRow maps a vocabulary ID to its row in it, -1
	// for the unlabelled majority (the rows ≥ 0 are H_L ∩ H).
	labels   *ontology.LabelMatrix
	labelRow []int32
	idf      []float64

	// idx is the model's packed similarity index, the one scan that
	// answers Eq. (3).
	idx *index.Index

	// ann is the model's HNSW graph over idx, nil unless cfg.ANN; annHow
	// says whether this profiler built, loaded or shared it. A graph is
	// immutable and cached on the model it was built over, so queries
	// can never pair an old graph with new vectors.
	ann    *index.ANN
	annHow ANNRestore

	// Sampled recall accounting: every 64th graph-answered query also
	// runs the exact scan and scores the ANN answer against it.
	annSample atomic.Uint64
	annHits   atomic.Int64
	annWant   atomic.Int64

	// Cached metric handles, nil without cfg.Metrics.
	mQuerySeconds *obs.Histogram
	mANNQueries   *obs.Counter
	mANNFallbacks *obs.Counter
	mANNSampled   *obs.Counter

	// The profile.index span's constant attributes, formatted once.
	attrRows, attrK, attrANN string

	scratch sync.Pool // *profileScratch
}

// contrib is one term of Eq. (4): label row `row` weighted by alpha.
type contrib struct {
	alpha float64
	row   int32
}

// profileScratch is the pooled working memory of one session's profile,
// held from prepare to finish, so the steady-state profile allocates
// only its result.
type profileScratch struct {
	sVec     []float64      // session representation s
	res      []index.Result // neighbourhood answer
	contribs []contrib      // Eq. (3) terms in summation order
	own      int            // contribs[:own] are the session's own hosts
	// inSession marks the label rows claimed by the session's own hosts
	// (alpha = 1); set by prepare, cleared by finish.
	inSession []bool
	// hosts and seen back dedupFirst, and finish empties both: their
	// strings may be windows onto a whole request body, which a pooled
	// scratch must not keep alive. toks and key back SessionKey.
	hosts []string
	seen  map[string]struct{}
	toks  []uint32
	key   []byte
}

// Profiler errors.
var (
	// ErrEmptySession is returned when the session has no usable hosts;
	// the paper's algorithm is only defined for non-empty sessions.
	ErrEmptySession = errors.New("core: empty session")
	// ErrNoLabels is returned when neither the session nor its embedding
	// neighbourhood contains any ontology-labelled host, so Equation (4)
	// is undefined (zero denominator).
	ErrNoLabels = errors.New("core: no labelled hosts reachable from session")
)

// NewProfiler builds a profiler over a trained model and an ontology.
// Labels are fixed per Profiler generation: the profiler works from the
// ontology's label matrix as of this call, so a later Ontology.Add is
// seen — for session hosts and neighbours alike — only by the next
// NewProfiler.
func NewProfiler(m *Model, ont *ontology.Ontology, cfg ProfilerConfig) *Profiler {
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	p := &Profiler{
		model:    m,
		ont:      ont,
		cfg:      cfg,
		labels:   ont.LabelMatrix(),
		labelRow: make([]int32, m.Vocab().Len()),
		attrK:    strconv.Itoa(cfg.N),
		attrANN:  strconv.FormatBool(cfg.ANN),
	}
	labelled := 0 // |H_L ∩ H|
	for id := range p.labelRow {
		p.labelRow[id] = -1
		if r, ok := p.labels.RowOf(m.Vocab().Host(id)); ok {
			p.labelRow[id] = r
			labelled++
		}
	}
	p.scratch.New = func() any {
		return &profileScratch{
			sVec:      make([]float64, m.Dim()),
			inSession: make([]bool, p.labels.Rows()),
			seen:      make(map[string]struct{}),
		}
	}
	if cfg.Agg == AggIDF {
		p.idf = make([]float64, m.Vocab().Len())
		total := float64(m.Vocab().Total())
		for id := range p.idf {
			p.idf[id] = logIDF(total, float64(m.Vocab().Count(id)))
		}
	}
	start := time.Now()
	p.idx = m.SimilarityIndex()
	packed := time.Since(start) // before the graph: that has its own histogram
	p.attrRows = strconv.Itoa(p.idx.Rows())
	if cfg.ANN {
		// ANNEf is passed per query instead, so profilers of different
		// search breadth share one graph.
		p.ann, p.annHow = m.annGraph(index.ANNConfig{M: cfg.ANNM})
	} else {
		// This profiler serves without a graph, so the one a snapshot
		// carried for the model has no taker: do not keep its bytes alive.
		m.SetEncodedANN(nil)
	}
	if cfg.Metrics != nil {
		p.publish(cfg.Metrics, labelled, packed)
	}
	return p
}

// publish registers the hostprof_index_* series: what NewProfiler built
// or attached — labelled vocabulary hosts, packed the index in packed —
// and the handles the query path counts on.
func (p *Profiler) publish(reg *obs.Registry, labelled int, packed time.Duration) {
	reg.Describe("hostprof_index_build_seconds", "Time to build (or attach) the packed similarity index per profiler.")
	reg.Describe("hostprof_index_rows", "Vocabulary rows in the packed similarity index.")
	reg.Describe("hostprof_index_bytes", "Size of the packed similarity matrix in bytes.")
	reg.Describe("hostprof_index_labelled_rows", "Vocabulary hosts that carry an ontology label.")
	reg.Describe("hostprof_index_query_seconds", "Packed similarity index query latency; each query of a shared batch pass records the pass's time over its query count.")
	reg.Histogram("hostprof_index_build_seconds", obs.ExpBuckets(0.001, 2, 14)).Observe(packed.Seconds())
	reg.Gauge("hostprof_index_rows").Set(float64(p.idx.Rows()))
	reg.Gauge("hostprof_index_bytes").Set(float64(p.idx.Bytes()))
	reg.Gauge("hostprof_index_labelled_rows").Set(float64(labelled))
	p.mQuerySeconds = reg.Histogram("hostprof_index_query_seconds", obs.ExpBuckets(0.0001, 2, 14))
	if p.ann == nil {
		return
	}
	reg.Describe("hostprof_index_ann_build_seconds", "Time to build the HNSW graph; a graph restored from a snapshot is not a build.")
	reg.Describe("hostprof_index_ann_queries_total", "Neighbourhood queries routed through the ANN layer.")
	reg.Describe("hostprof_index_ann_fallbacks_total", "ANN queries answered by the exact-scan fallback instead of the graph.")
	reg.Describe("hostprof_index_ann_sampled_queries_total", "Graph-answered queries re-run exactly for the recall estimate.")
	reg.Describe("hostprof_index_ann_recall_estimate", "Sampled ANN recall against the exact scan since the last (re)build; 1 before any sample.")
	// Registered even when nothing is built, so its count says whether
	// this process built its graph or was handed it. 1 ms to 70 min: a
	// build is ~0.25 s at 3.7K rows and minutes at the paper's 470K.
	build := reg.Histogram("hostprof_index_ann_build_seconds", obs.ExpBuckets(0.001, 4, 12))
	if p.annHow.Built {
		build.Observe(p.ann.Stats().BuildTime.Seconds())
	}
	p.mANNQueries = reg.Counter("hostprof_index_ann_queries_total")
	p.mANNFallbacks = reg.Counter("hostprof_index_ann_fallbacks_total")
	p.mANNSampled = reg.Counter("hostprof_index_ann_sampled_queries_total")
	// Re-registering after a retrain points the series at the new
	// profiler's accounting (GaugeFunc replaces the fn).
	reg.GaugeFunc("hostprof_index_ann_recall_estimate", func() float64 {
		want := p.annWant.Load()
		if want == 0 {
			return 1
		}
		return float64(p.annHits.Load()) / float64(want)
	})
}

// ANNRestore reports how the profiler came by its HNSW graph; the zero
// value without cfg.ANN.
func (p *Profiler) ANNRestore() ANNRestore { return p.annHow }

// logIDF returns ln(total/count) floored at a small positive value, so
// ubiquitous hosts still contribute to the session vector, just weakly.
func logIDF(total, count float64) float64 {
	if count <= 0 {
		return 0
	}
	if r := total / count; r > 1 {
		return math.Log(r)
	}
	return 0.01
}

// Model returns the underlying embedding model.
func (p *Profiler) Model() *Model { return p.model }

// SessionVector computes the aggregated representation s of a session (the
// vector g({h : h ∈ s})). Hosts outside the vocabulary are ignored. The
// second return value is the number of in-vocabulary hosts used.
func (p *Profiler) SessionVector(hosts []string) ([]float64, int) {
	s := make([]float64, p.model.Dim())
	n := 0
	for _, h := range hosts {
		if id, ok := p.model.Vocab().ID(h); ok {
			p.addHost(s, id)
			n++
		}
	}
	p.finishSessionVector(s, n)
	return s, n
}

// addHost folds vocabulary host id into the running session sum s.
func (p *Profiler) addHost(s []float64, id int) {
	w := 1.0
	if p.cfg.Agg == AggIDF {
		w = p.idf[id]
	}
	for i, x := range p.model.VectorByID(id) {
		s[i] += w * float64(x)
	}
}

// finishSessionVector turns the sum over n in-vocabulary hosts into the
// configured aggregate.
func (p *Profiler) finishSessionVector(s []float64, n int) {
	if n > 0 && p.cfg.Agg == AggMean {
		stats.Scale(1/float64(n), s)
	}
}

// dedupFirst keeps the first occurrence of every host, preserving order
// (Eq. 4 sums floats in session order). The result is sc's memory: it
// must not outlive the caller's hold on sc.
func (sc *profileScratch) dedupFirst(hosts []string) []string {
	clear(sc.seen)
	out := sc.hosts[:0]
	for _, h := range hosts {
		n := len(sc.seen)
		if sc.seen[h] = struct{}{}; len(sc.seen) > n {
			out = append(out, h)
		}
	}
	sc.hosts = out
	return out
}

// annSearch appends to dst the answer to one Eq. (3) neighbourhood
// query through the attached HNSW graph, counting queries and fallbacks
// and keeping a sampled recall estimate by re-running every 64th
// graph-answered query exactly.
func (p *Profiler) annSearch(dst []index.Result, sVec []float64, k int) []index.Result {
	res, fellBack := p.ann.SearchAppend(dst, sVec, k, p.cfg.ANNEf, 0, index.NoExclude)
	p.mANNQueries.Inc() // nil-safe without cfg.Metrics
	if fellBack {
		p.mANNFallbacks.Inc()
		return res
	}
	if p.annSample.Add(1)%64 == 1 {
		exact := p.idx.SearchAppend(nil, sVec, k, 0, index.NoExclude)
		p.annHits.Add(int64(index.RecallHits(exact, res[len(dst):])))
		p.annWant.Add(int64(len(exact)))
		p.mANNSampled.Inc()
	}
	return res
}

// neighbours answers the Eq. (3) neighbourhood query — H_{s}, the N
// vocabulary hosts closest to the session representation — for every
// session of ask, into its scratch's res. Exact queries share passes
// over the rows (index.SearchBatchAppend), a lone one included; a query
// through the ANN graph runs on its own (annSearch). The group
// is one profile.index span under ctx and len(ask) queries in the
// hostprof_index_* metrics.
func (p *Profiler) neighbours(ctx context.Context, g *sessionGroup, ask []*profileScratch) {
	if len(ask) == 0 {
		return
	}
	_, span := p.cfg.Tracer.StartSpan(ctx, "profile.index")
	start := time.Now()
	if p.ann != nil {
		for _, sc := range ask {
			sc.res = p.annSearch(sc.res[:0], sc.sVec, p.cfg.N)
		}
	} else {
		for i, sc := range ask {
			g.queries[i], g.res[i] = sc.sVec, sc.res[:0]
		}
		p.idx.SearchBatchAppend(g.res[:len(ask)], g.queries[:len(ask)], p.cfg.N)
		for i, sc := range ask {
			sc.res = g.res[i]
		}
	}
	if p.mQuerySeconds != nil {
		per := time.Since(start).Seconds() / float64(len(ask))
		for range ask {
			p.mQuerySeconds.Observe(per)
		}
	}
	span.SetAttr("queries", strconv.Itoa(len(ask)))
	span.SetAttr("rows", p.attrRows)
	span.SetAttr("k", p.attrK)
	span.SetAttr("ann", p.attrANN)
	span.End()
}

// SessionKey returns a canonical cache key for a session: the sorted
// tokens of the hosts that can influence its profile, 4 bytes each. An
// in-vocabulary host (it shapes the session vector) is its vocabulary
// ID; a labelled host outside the vocabulary (it contributes with
// weight 1) is |V| plus its row in the label snapshot the profiler was
// built with, so a later Ontology.Add changes neither key nor profile.
// Two sessions with equal keys produce identical profiles under this
// profiler, so the key is safe to memoise on for the profiler's
// lifetime; it means nothing to another profiler. The empty key means
// no host influences the profile; callers must not cache it. Repeats
// are dropped unless SkipDedup is set (then multiplicity changes the
// session vector, and the key keeps it).
func (p *Profiler) SessionKey(hosts []string) string {
	sc := p.scratch.Get().(*profileScratch)
	defer p.scratch.Put(sc)
	vocab := p.model.Vocab()
	toks := sc.toks[:0]
	for _, h := range hosts {
		if id, ok := vocab.ID(h); ok {
			toks = append(toks, uint32(id))
		} else if r, ok := p.labels.RowOf(h); ok {
			toks = append(toks, uint32(vocab.Len())+uint32(r))
		}
	}
	slices.Sort(toks)
	if !p.cfg.SkipDedup {
		toks = slices.Compact(toks) // sorted, so repeats are adjacent
	}
	key := sc.key[:0]
	for _, t := range toks {
		key = binary.LittleEndian.AppendUint32(key, t)
	}
	sc.toks, sc.key = toks, key
	return string(key)
}

// ProfileSession computes the category vector c^{s_u^T} of a session
// (Equations 3 and 4): hostnames labelled by the ontology contribute with
// weight 1; the N nearest vocabulary hosts to the session representation
// contribute with weight [cos(s, h)]_+ when labelled.
func (p *Profiler) ProfileSession(hosts []string) (ontology.Vector, error) {
	return p.ProfileSessionContext(context.Background(), hosts)
}

// ProfileSessionContext is ProfileSession under a request context: when
// ctx carries an active trace, the index scan appears as a profile.index
// child span. It is a group of one: prepare, one search, finish.
func (p *Profiler) ProfileSessionContext(ctx context.Context, hosts []string) (ontology.Vector, error) {
	var g sessionGroup
	var vec [1]ontology.Vector
	var err [1]error
	p.profileGroup(ctx, &g, [][]string{hosts}, vec[:], err[:])
	return vec[0], err[0]
}

// maxGroup caps the sessions profiled together: one profile.index span
// and one batch search, four queries per pass over the rows, per group.
const maxGroup = 16

// groupSize is the group for n sessions over the given workers: enough
// groups to keep every worker busy, whole passes of four where that
// allows, at most maxGroup.
func groupSize(n, workers int) int {
	g := (n + workers - 1) / workers
	return min((g+3)&^3, maxGroup)
}

// sessionGroup is profileGroup's working memory, sized for the largest
// group so that it never allocates: each session's scratch (nil for an
// empty session), and the batch search's queries and answers.
type sessionGroup struct {
	scs, ask [maxGroup]*profileScratch
	queries  [maxGroup][]float64
	res      [maxGroup][]index.Result
}

// profileGroup profiles up to maxGroup sessions into vecs and errs in
// three steps: prepare each session, answer all their neighbourhood
// queries at once (neighbours), then finish each with Eq. (4).
//
// Each session is one pass over pooled scratch. Every labelled host is
// known by its row in the profiler's label matrix, so the contributions
// of Eq. (3) are (alpha, row) pairs and Eq. (4) adds only each row's few
// non-zero categories. The categories it skips would each add w·0 = +0
// to a non-negative sum, so the result has the bits of the dense sum.
func (p *Profiler) profileGroup(ctx context.Context, g *sessionGroup, sessions [][]string, vecs []ontology.Vector, errs []error) {
	ask := g.ask[:0]
	for i, hosts := range sessions {
		g.scs[i] = nil
		if len(hosts) == 0 {
			errs[i] = ErrEmptySession
			continue
		}
		sc := p.scratch.Get().(*profileScratch)
		if p.prepare(sc, hosts) {
			ask = append(ask, sc)
		}
		g.scs[i] = sc
	}
	p.neighbours(ctx, g, ask)
	for i, sc := range g.scs[:len(sessions)] {
		if sc != nil {
			vecs[i], errs[i] = p.finish(sc)
		}
	}
}

// prepare runs the session's own half of Eq. (3) into sc: dedup, the
// session vector s, and the weight-1 contributions of the labelled
// hosts, marked in sc.inSession. It reports whether s is defined — some
// host is in the vocabulary — and so the neighbourhood query is due.
func (p *Profiler) prepare(sc *profileScratch, hosts []string) bool {
	if !p.cfg.SkipDedup {
		hosts = sc.dedupFirst(hosts)
	}
	// L: labelled hosts appearing in the session (whether or not they
	// made it into the vocabulary — the observer knows their names).
	// Contributions are kept in a fixed order — session hosts in session
	// order, then neighbours in rank order — because Eq. 4 sums floats:
	// the same session must give the same bits on every call.
	clear(sc.sVec)
	contribs := sc.contribs[:0]
	inVocab := 0
	for _, h := range hosts {
		row := int32(-1)
		if id, ok := p.model.Vocab().ID(h); ok {
			p.addHost(sc.sVec, id)
			inVocab++
			row = p.labelRow[id]
		} else if r, ok := p.labels.RowOf(h); ok {
			row = r
		}
		if row >= 0 && !sc.inSession[row] { // a repeat is only reachable with SkipDedup
			sc.inSession[row] = true
			contribs = append(contribs, contrib{alpha: 1, row: row}) // Eq. (3), h ∈ L
		}
	}
	sc.contribs, sc.own, sc.res = contribs, len(contribs), sc.res[:0]
	p.finishSessionVector(sc.sVec, inVocab)
	return inVocab > 0
}

// finish appends the labelled neighbours in sc.res outside the session
// to its contributions in rank order, weighted [cos]_+, evaluates
// Eq. (4) and returns sc to the pool, holding none of the session's
// hostnames.
func (p *Profiler) finish(sc *profileScratch) (ontology.Vector, error) {
	contribs := sc.contribs
	for _, r := range sc.res {
		row := p.labelRow[r.ID]
		if row < 0 || sc.inSession[row] {
			continue // unlabelled, or session membership dominates (alpha = 1)
		}
		if alpha := stats.SumPositive(float64(r.Score)); alpha > 0 { // Eq. (3), otherwise
			contribs = append(contribs, contrib{alpha: alpha, row: row})
		}
	}
	for _, c := range contribs[:sc.own] {
		sc.inSession[c.row] = false
	}
	sc.contribs = contribs
	out, err := p.average(contribs)
	clear(sc.hosts)
	clear(sc.seen)
	p.scratch.Put(sc)
	return out, err
}

// average evaluates Eq. (4), the alpha-weighted average of the
// contributions' label rows, in slice order.
func (p *Profiler) average(contribs []contrib) (ontology.Vector, error) {
	// Nothing labelled in the session or its neighbourhood (this also
	// covers the all-unknown session: no in-vocabulary host leaves only
	// the session's own ontology hits, of which there were none).
	if len(contribs) == 0 {
		return nil, ErrNoLabels
	}
	out := p.ont.Taxonomy().NewVector()
	var denom float64
	for _, c := range contribs {
		denom += c.alpha
	}
	for _, c := range contribs {
		w := c.alpha / denom
		cols, vals := p.labels.Row(c.row)
		for j, col := range cols {
			out[col] += w * vals[j]
		}
	}
	out.Clamp() // guard accumulated rounding just above 1
	return out, nil
}

// ProfileSessions profiles a batch of sessions in groups (groupSize)
// that worker goroutines claim; each group shares its index passes
// (profileGroup). It returns one vector-or-error per session, positions
// matching the input; the batch appears as one profile.batch span.
func (p *Profiler) ProfileSessions(ctx context.Context, sessions [][]string) ([]ontology.Vector, []error) {
	vecs := make([]ontology.Vector, len(sessions))
	errs := make([]error, len(sessions))
	if len(sessions) == 0 {
		return vecs, errs
	}
	ctx, span := p.cfg.Tracer.StartSpan(ctx, "profile.batch")
	span.SetAttr("sessions", strconv.Itoa(len(sessions)))
	defer span.End()

	workers := min(runtime.GOMAXPROCS(0), len(sessions))
	size := groupSize(len(sessions), workers)
	var next atomic.Int64
	work := func() {
		var g sessionGroup
		for {
			lo := int(next.Add(1)-1) * size
			if lo >= len(sessions) {
				return
			}
			hi := min(lo+size, len(sessions))
			p.profileGroup(ctx, &g, sessions[lo:hi], vecs[lo:hi], errs[lo:hi])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return vecs, errs
}
