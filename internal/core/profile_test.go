package core

import (
	"context"
	"errors"
	"testing"

	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// profilingFixture trains a toy model with two topical communities and
// labels a subset of hosts: topic-A hosts get category 0, topic-B hosts
// get category 1.
type profilingFixture struct {
	model *Model
	ont   *ontology.Ontology
	tax   *ontology.Taxonomy
	ta    []string
	tb    []string
}

func newProfilingFixture(t *testing.T, labelFrac float64) *profilingFixture {
	t.Helper()
	rng := stats.NewRNG(101)
	corpus, ta, tb := topicCorpus(rng, 12, 600, 12)
	m, err := Train(corpus, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	nLab := int(labelFrac * float64(len(ta)))
	if nLab < 1 {
		nLab = 1
	}
	for i := 0; i < nLab; i++ {
		va := tax.NewVector()
		va[0] = 1
		ont.Add(ta[i], va)
		vb := tax.NewVector()
		vb[1] = 1
		ont.Add(tb[i], vb)
	}
	return &profilingFixture{model: m, ont: ont, tax: tax, ta: ta, tb: tb}
}

func TestProfileSessionTransfersLabels(t *testing.T) {
	// Label only 25% of hosts; profile a session of *unlabelled*
	// topic-A hosts. The embedding neighbourhood must pull in labelled
	// topic-A hosts and assign category 0 the most weight.
	fx := newProfilingFixture(t, 0.25)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20})
	session := fx.ta[len(fx.ta)-4:] // unlabelled tail of topic A
	prof, err := p.ProfileSession(session)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Valid() {
		t.Fatal("profile out of [0,1]")
	}
	if prof[0] <= prof[1] {
		t.Fatalf("topic-A session scored c0=%.3f c1=%.3f; want c0 > c1", prof[0], prof[1])
	}
}

func TestProfileSessionLabelledHostsDominate(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5})
	// Session contains a labelled topic-B host: its alpha is 1.
	prof, err := p.ProfileSession([]string{fx.tb[0]})
	if err != nil {
		t.Fatal(err)
	}
	if prof[1] <= prof[0] {
		t.Fatalf("labelled host ignored: c0=%.3f c1=%.3f", prof[0], prof[1])
	}
}

func TestProfileSessionEmpty(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{})
	if _, err := p.ProfileSession(nil); !errors.Is(err, ErrEmptySession) {
		t.Fatalf("err = %v, want ErrEmptySession", err)
	}
}

func TestProfileSessionAllUnknownHosts(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{})
	_, err := p.ProfileSession([]string{"never-seen-1.example", "never-seen-2.example"})
	if !errors.Is(err, ErrNoLabels) {
		t.Fatalf("err = %v, want ErrNoLabels", err)
	}
}

func TestProfileSessionUnknownButLabelled(t *testing.T) {
	// A host missing from the vocabulary but present in the ontology
	// must still contribute with weight 1 (L is defined over the
	// session, not the vocabulary).
	fx := newProfilingFixture(t, 0.5)
	v := fx.tax.NewVector()
	v[7] = 1
	fx.ont.Add("oov-labelled.example", v)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5})
	prof, err := p.ProfileSession([]string{"oov-labelled.example"})
	if err != nil {
		t.Fatal(err)
	}
	if prof[7] != 1 {
		t.Fatalf("c7 = %v, want 1", prof[7])
	}
}

func TestProfileSessionDedupFirstVisit(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5})
	// A session visiting one labelled topic-A host once vs. fifty
	// times must produce the same profile (paper Section 4.1: repeat
	// visits within a window are collapsed).
	once, err := p.ProfileSession([]string{fx.ta[0], fx.tb[0]})
	if err != nil {
		t.Fatal(err)
	}
	many := []string{fx.ta[0]}
	for i := 0; i < 50; i++ {
		many = append(many, fx.ta[0])
	}
	many = append(many, fx.tb[0])
	rep, err := p.ProfileSession(many)
	if err != nil {
		t.Fatal(err)
	}
	for i := range once {
		if once[i] != rep[i] {
			t.Fatalf("dedup failed at category %d: %v vs %v", i, once[i], rep[i])
		}
	}
}

func TestProfileSessionSkipDedupDiffers(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	pd := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5, SkipDedup: true})
	many := []string{fx.ta[0], fx.ta[0], fx.ta[0], fx.tb[0]}
	prof, err := pd.ProfileSession(many)
	if err != nil {
		t.Fatal(err)
	}
	// With dedup disabled the session vector tilts toward topic A; the
	// run must simply succeed and stay valid.
	if !prof.Valid() {
		t.Fatal("profile out of range")
	}
}

func TestSessionVectorAggregations(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	hosts := []string{fx.ta[0], fx.ta[1]}
	mean := NewProfiler(fx.model, fx.ont, ProfilerConfig{Agg: AggMean})
	sum := NewProfiler(fx.model, fx.ont, ProfilerConfig{Agg: AggSum})
	vMean, n1 := mean.SessionVector(hosts)
	vSum, n2 := sum.SessionVector(hosts)
	if n1 != 2 || n2 != 2 {
		t.Fatalf("in-vocab counts %d,%d", n1, n2)
	}
	for i := range vMean {
		if diff := vSum[i] - 2*vMean[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("sum != 2*mean at %d", i)
		}
	}
	idf := NewProfiler(fx.model, fx.ont, ProfilerConfig{Agg: AggIDF})
	vIDF, n3 := idf.SessionVector(hosts)
	if n3 != 2 {
		t.Fatalf("idf in-vocab count %d", n3)
	}
	if stats.Norm(vIDF) == 0 {
		t.Fatal("idf vector is zero")
	}
}

func TestSessionVectorAllOOV(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{})
	v, n := p.SessionVector([]string{"zzz.example"})
	if n != 0 {
		t.Fatalf("n = %d", n)
	}
	if stats.Norm(v) != 0 {
		t.Fatal("OOV session vector should be zero")
	}
}

func TestProfilerDefaultN(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{})
	if p.cfg.N != 1000 {
		t.Fatalf("default N = %d, want 1000 (paper Section 4.1)", p.cfg.N)
	}
}

func TestProfileValuesBounded(t *testing.T) {
	fx := newProfilingFixture(t, 1.0)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 50})
	for trial := 0; trial < 10; trial++ {
		session := []string{fx.ta[trial], fx.tb[(trial+3)%len(fx.tb)]}
		prof, err := p.ProfileSession(session)
		if err != nil {
			t.Fatal(err)
		}
		if !prof.Valid() {
			t.Fatalf("trial %d: profile out of [0,1]", trial)
		}
	}
}

func TestDedupFirst(t *testing.T) {
	in := []string{"a", "b", "a", "c", "b"}
	out := dedupFirst(in)
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("dedupFirst = %v", out)
	}
}

// Property: profiling is invariant (to floating-point tolerance) under
// permutation of a duplicate-free session — the algorithm is defined on
// the session *set* once first-visit dedup has run.
func TestProfilePermutationInvariantQuick(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 10})
	base := append(append([]string{}, fx.ta[:4]...), fx.tb[:3]...)
	ref, err := p.ProfileSession(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(777)
	for trial := 0; trial < 20; trial++ {
		perm := append([]string(nil), base...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		got, err := p.ProfileSession(perm)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if d := got[i] - ref[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("trial %d: category %d differs by %v", trial, i, d)
			}
		}
	}
}

// TestProfileSessionBitDeterministic pins Eq. 4's summation order: the
// same session on the same model must return the same float64 bits on
// every call, and the batch workers the same bits as the single-session
// path. (Folding the contributions in map order made the last bit follow
// Go's randomised iteration.)
func TestProfileSessionBitDeterministic(t *testing.T) {
	fx := newProfilingFixture(t, 0.75)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 20})
	all := append(append([]string{}, fx.ta...), fx.tb...)
	rng := stats.NewRNG(4242)
	sessions := make([][]string, 40)
	for i := range sessions {
		perm := rng.Perm(len(all))[:1+rng.Intn(8)]
		for _, j := range perm {
			sessions[i] = append(sessions[i], all[j])
		}
	}
	want := make([]ontology.Vector, len(sessions))
	for i, s := range sessions {
		var err error
		if want[i], err = p.ProfileSession(s); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		for call := 1; call < 50; call++ {
			got, err := p.ProfileSession(s)
			if err != nil {
				t.Fatalf("session %d call %d: %v", i, call, err)
			}
			if !vectorsBitEqual(got, want[i]) {
				t.Fatalf("session %d: call %d differs from call 0 in the last bits", i, call)
			}
		}
	}
	for round := 0; round < 5; round++ {
		vecs, errs := p.ProfileSessions(context.Background(), sessions)
		for i := range sessions {
			if errs[i] != nil || !vectorsBitEqual(vecs[i], want[i]) {
				t.Fatalf("round %d session %d: batch profile differs from ProfileSession (err %v)", round, i, errs[i])
			}
		}
	}
}
