package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// dedupFirst is the allocating first-occurrence filter the profiler ran
// before it deduplicated into pooled scratch; the dense Eq. 3–4 oracle
// and the tests below keep it as the reference.
func dedupFirst(hosts []string) []string {
	seen := make(map[string]bool, len(hosts))
	out := make([]string, 0, len(hosts))
	for _, h := range hosts {
		if seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, h)
	}
	return out
}

// refSessionKey is SessionKey as it was written before it stopped
// building a map: dedup first, filter, sort.
func refSessionKey(p *Profiler, hosts []string) string {
	if !p.cfg.SkipDedup {
		hosts = dedupFirst(hosts)
	}
	var keep []string
	for _, h := range hosts {
		if _, ok := p.model.Vocab().ID(h); ok {
			keep = append(keep, h)
		} else if _, ok := p.ont.Lookup(h); ok {
			keep = append(keep, h)
		}
	}
	sort.Strings(keep)
	return strings.Join(keep, "\n")
}

// TestSessionKeyMatchesReference pins the filter-sort-compact SessionKey
// to the dedup-filter-sort one on random sessions mixing repeats,
// unknown hosts and labelled hosts outside the vocabulary, with and
// without SkipDedup; the scratch-backed dedupFirst to the allocating one
// on the same sessions.
func TestSessionKeyMatchesReference(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	v := fx.tax.NewVector()
	v[3] = 1
	pool := slices.Concat(fx.ta, fx.tb)
	for i := 0; i < 6; i++ {
		oov := "oov-labelled-" + string(rune('a'+i)) + ".example"
		fx.ont.Add(oov, v)
		pool = append(pool, oov, "unknown-"+string(rune('a'+i))+".example")
	}
	rng := rand.New(rand.NewSource(2201))
	for _, skip := range []bool{false, true} {
		p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5, SkipDedup: skip})
		sc := p.scratch.Get().(*profileScratch)
		for trial := 0; trial < 500; trial++ {
			session := make([]string, rng.Intn(40))
			for i := range session {
				session[i] = pool[rng.Intn(1+rng.Intn(len(pool)))] // skewed: repeats are common
			}
			if got, want := p.SessionKey(session), refSessionKey(p, session); got != want {
				t.Fatalf("SkipDedup=%v session %q: key %q, reference %q", skip, session, got, want)
			}
			if got, want := sc.dedupFirst(session), dedupFirst(session); !slices.Equal(got, want) {
				t.Fatalf("session %q: scratch dedup %q, reference %q", session, got, want)
			}
		}
		p.scratch.Put(sc)
	}
}
