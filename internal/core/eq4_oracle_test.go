package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hostprof/internal/index"
	"hostprof/internal/ontology"
	"hostprof/internal/stats"
)

// profileSessionDense is the dense Eq. 3–4 implementation the sparse
// single-pass path replaced, kept as its oracle: ontology map lookups by
// host name, a string-keyed session set, the full N-neighbour answer
// filtered afterwards, and one taxonomy-wide AXPY per contribution. Fed
// the profiler's own neighbourhood answer, ProfileSession must return its
// bits; fed refNearestToVector's float64 scan (serial) it shares no code
// with the product below SessionVector, and ProfileSession must agree to
// within profileTol.
func profileSessionDense(p *Profiler, hosts []string, serial bool) (ontology.Vector, error) {
	if !p.cfg.SkipDedup {
		hosts = dedupFirst(hosts)
	}
	if len(hosts) == 0 {
		return nil, ErrEmptySession
	}
	sVec, inVocab := p.SessionVector(hosts)
	type contrib struct {
		alpha float64
		vec   ontology.Vector
	}
	var contribs []contrib
	inSession := make(map[string]struct{})
	for _, h := range hosts {
		if _, dup := inSession[h]; dup {
			continue
		}
		if v, ok := p.ont.Lookup(h); ok {
			inSession[h] = struct{}{}
			contribs = append(contribs, contrib{alpha: 1, vec: v})
		}
	}
	if inVocab > 0 {
		var neighbours []Neighbour
		if serial {
			neighbours = refNearestToVector(p.model, sVec, p.cfg.N)
		} else {
			var res []index.Result
			if p.ann != nil {
				res = p.annSearch(nil, sVec, p.cfg.N)
			} else {
				res = p.idx.SearchAppend(nil, sVec, p.cfg.N, 0, index.NoExclude)
			}
			for _, r := range res {
				neighbours = append(neighbours, Neighbour{ID: int(r.ID), Host: p.model.Vocab().Host(int(r.ID)), Cosine: float64(r.Score)})
			}
		}
		for _, nb := range neighbours {
			v, ok := p.ont.Lookup(nb.Host)
			if !ok {
				continue
			}
			if _, ok := inSession[nb.Host]; ok {
				continue
			}
			if alpha := stats.SumPositive(nb.Cosine); alpha > 0 {
				contribs = append(contribs, contrib{alpha: alpha, vec: v})
			}
		}
	}
	if len(contribs) == 0 {
		return nil, ErrNoLabels
	}
	out := p.ont.Taxonomy().NewVector()
	var denom float64
	for _, c := range contribs {
		denom += c.alpha
	}
	for _, c := range contribs {
		axpy(c.alpha/denom, c.vec, out)
	}
	out.Clamp()
	return out, nil
}

// eq4World is a random model with ~11% of its vocabulary labelled by
// sparse rows (1–3 categories, like the paper's ontology), uneven host
// counts so AggIDF weighs hosts differently, and a few labelled hosts
// outside the vocabulary.
func eq4World(t testing.TB, seed uint64, vocab, dim int) (*Model, *ontology.Ontology, []string) {
	rng := stats.NewRNG(seed)
	m := randModel(t, rng, vocab, dim, 3, vocab/2)
	m.vocab.total = 0
	for id := range m.vocab.counts {
		m.vocab.counts[id] = 1 + int64(rng.Intn(500))
		m.vocab.total += m.vocab.counts[id]
	}
	tax := ontology.NewTaxonomy()
	ont := ontology.New(tax)
	label := func(host string) {
		v := tax.NewVector()
		for j := 1 + rng.Intn(3); j > 0; j-- {
			v[rng.Intn(len(v))] = rng.Float64()
		}
		ont.Add(host, v)
	}
	for id := 0; id < vocab; id++ {
		if rng.Float64() < 0.11 {
			label(m.Vocab().Host(id))
		}
	}
	var oov []string
	for i := 0; i < 12; i++ {
		oov = append(oov, fmt.Sprintf("oov-labelled-%d.example", i))
		label(oov[i])
	}
	return m, ont, oov
}

// TestProfileSessionMatchesDenseOracle drives the sparse profile path
// and the dense oracle over every profiler shape — first-visit dedup on
// and off, all three aggregations, the exact scan, the ANN graph and the
// serial reference — with sessions that repeat hosts and mix in unknown
// and out-of-vocabulary labelled ones. Same error or the same bits; the
// serial rows, whose cosines are float64, within profileTol instead.
func TestProfileSessionMatchesDenseOracle(t *testing.T) {
	m, ont, oov := eq4World(t, 1616, 1500, 16)
	modes := map[string]ProfilerConfig{
		"exact":  {N: 700},
		"ann":    {N: 20, ANN: true, ANNEf: 32},
		"serial": {N: 700},
	}
	for mode, base := range modes {
		for _, skip := range []bool{false, true} {
			for _, agg := range []Aggregation{AggMean, AggSum, AggIDF} {
				cfg := base
				cfg.SkipDedup, cfg.Agg = skip, agg
				p := NewProfiler(m, ont, cfg)
				rng := stats.NewRNG(77)
				profiled := 0
				for s := 0; s < 150; s++ {
					var hosts []string
					for j := rng.Intn(14); j >= 0; j-- {
						switch r := rng.Float64(); {
						case r < 0.08:
							hosts = append(hosts, oov[rng.Intn(len(oov))])
						case r < 0.16:
							hosts = append(hosts, fmt.Sprintf("unknown-%d.example", rng.Intn(5)))
						case r < 0.30 && len(hosts) > 0:
							hosts = append(hosts, hosts[rng.Intn(len(hosts))]) // a repeat visit
						default:
							hosts = append(hosts, m.Vocab().Host(rng.Intn(m.Vocab().Len())))
						}
					}
					if s == 0 {
						hosts = []string{"unknown-0.example"} // ErrNoLabels on both
					}
					got, gotErr := p.ProfileSession(hosts)
					want, wantErr := profileSessionDense(p, hosts, mode == "serial")
					if !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) {
						t.Fatalf("%s skip=%v agg=%d session %d: err %v, dense oracle %v", mode, skip, agg, s, gotErr, wantErr)
					}
					same := vectorsBitEqual(got, want)
					if mode == "serial" {
						same = vectorsWithin(got, want, profileTol)
					}
					if !same {
						t.Fatalf("%s skip=%v agg=%d session %d %v: profile differs from the dense oracle", mode, skip, agg, s, hosts)
					}
					if got != nil {
						profiled++
					}
				}
				if profiled < 100 {
					t.Fatalf("%s skip=%v agg=%d: only %d of 150 sessions profiled; the comparison is vacuous", mode, skip, agg, profiled)
				}
			}
		}
	}
}

// TestProfileSessionPoisonedHost is the profile-level regression test
// for non-finite embeddings: core.Load accepts them, the index zeroes
// such a row, but the session vector still sums the float64 original and
// goes NaN. A session over a poisoned host must profile from its own
// labels, or report ErrNoLabels — never from the ranks of a NaN query.
// The serial row holds the float64 oracle to the same answers.
func TestProfileSessionPoisonedHost(t *testing.T) {
	m, ont, oov := eq4World(t, 1617, 400, 8)
	const poisoned = 7
	m.in[poisoned*m.dim+2] = float32(math.Inf(1))
	poisonedHost := m.Vocab().Host(poisoned)
	clean := m.Vocab().Host(11)
	for mode, cfg := range map[string]ProfilerConfig{
		"exact":        {N: 50},
		"ann":          {N: 10, ANN: true, ANNEf: 16, ANNM: 8}, // 400 rows > 16·2·8: a graph
		"ann no graph": {N: 400, ANN: true},                    // 400 rows ≤ 400·2·16: exact
		"serial":       {N: 50},
	} {
		p := NewProfiler(m, ont, cfg)
		profile := p.ProfileSession
		if mode == "serial" {
			profile = func(hosts []string) (ontology.Vector, error) { return profileSessionDense(p, hosts, true) }
		}
		// No label in the session, no usable neighbourhood.
		if ont.Covered(poisonedHost) || ont.Covered(clean) {
			t.Fatal("fixture: hosts 7 and 11 must be unlabelled")
		}
		if v, err := profile([]string{poisonedHost, clean}); !errors.Is(err, ErrNoLabels) {
			t.Errorf("%s: poisoned session with no labels: profile %v, err %v; want ErrNoLabels", mode, v != nil, err)
		}
		// The session's own label is all there is to go by.
		got, err := profile([]string{poisonedHost, oov[0]})
		if err != nil {
			t.Errorf("%s: poisoned session with a labelled host: %v", mode, err)
			continue
		}
		want, _ := ont.Lookup(oov[0])
		if !vectorsBitEqual(got, want) {
			t.Errorf("%s: poisoned session profiled from something other than its own label", mode)
		}
	}
}
