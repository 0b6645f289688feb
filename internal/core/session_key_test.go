package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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

// TestSessionKeyMatchesReference holds SessionKey to the contract of
// the host-name key it replaced, refSessionKey: on random sessions
// mixing repeats, unknown hosts and labelled hosts outside the
// vocabulary, each with a shuffled, padded twin, with and without
// SkipDedup, two keys are equal exactly when their reference keys are,
// and a key is "" exactly when its reference is. Keying each side by
// the other and requiring both maps to stay consistent checks every
// pair. The scratch-backed dedupFirst is held to the allocating one on
// the same sessions.
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
		byRef, byKey := map[string]string{}, map[string]string{}
		check := func(session []string) {
			key, ref := p.SessionKey(session), refSessionKey(p, session)
			if (key == "") != (ref == "") {
				t.Fatalf("SkipDedup=%v session %q: key %q, reference %q", skip, session, key, ref)
			}
			if k, ok := byRef[ref]; ok && k != key {
				t.Fatalf("SkipDedup=%v: reference key %q maps to keys %q and %q", skip, ref, k, key)
			}
			if r, ok := byKey[key]; ok && r != ref {
				t.Fatalf("SkipDedup=%v: key %q maps to reference keys %q and %q", skip, key, r, ref)
			}
			byRef[ref], byKey[key] = key, ref
		}
		for trial := 0; trial < 500; trial++ {
			session := make([]string, rng.Intn(40))
			for i := range session {
				session[i] = pool[rng.Intn(1+rng.Intn(len(pool)))] // skewed: repeats are common
			}
			check(session)
			twin := append(slices.Clone(session), "unknown-twin.example")
			for i := len(twin) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				twin[i], twin[j] = twin[j], twin[i]
			}
			if !skip && len(session) > 0 {
				twin = append(twin, session[rng.Intn(len(session))])
			}
			check(twin)
			if got, want := sc.dedupFirst(session), dedupFirst(session); !slices.Equal(got, want) {
				t.Fatalf("session %q: scratch dedup %q, reference %q", session, got, want)
			}
		}
		if len(byKey) < 100 {
			t.Fatalf("SkipDedup=%v: only %d distinct keys; the sessions do not exercise the key", skip, len(byKey))
		}
		p.scratch.Put(sc)
	}
}

// TestProfileScratchDropsHosts profiles a batch whose hostnames are
// windows onto one body string, as the shard's decoder makes them, and
// requires every scratch the pool ever made to hold none of them after:
// a pooled scratch that kept one would keep the whole body alive.
func TestProfileScratchDropsHosts(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	for _, skip := range []bool{false, true} {
		p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5, SkipDedup: skip})
		var mu sync.Mutex
		var made []*profileScratch
		newScratch := p.scratch.New
		p.scratch.New = func() any {
			sc := newScratch()
			mu.Lock()
			made = append(made, sc.(*profileScratch))
			mu.Unlock()
			return sc
		}
		body := strings.Join(slices.Concat(fx.ta, fx.tb, fx.ta[:3]), " ")
		hosts := strings.Fields(body)
		var sessions [][]string
		for i := 0; i+5 <= len(hosts); i += 3 {
			sessions = append(sessions, hosts[i:i+5])
		}
		p.ProfileSessions(context.Background(), sessions)
		p.ProfileSession(hosts[:7])
		if len(made) == 0 {
			t.Fatal("no scratch made")
		}
		for i, sc := range made {
			if len(sc.seen) != 0 {
				t.Errorf("SkipDedup=%v: scratch %d keeps %d hosts in seen", skip, i, len(sc.seen))
			}
			for j, h := range sc.hosts[:cap(sc.hosts)] {
				if h != "" {
					t.Errorf("SkipDedup=%v: scratch %d keeps host %q at %d", skip, i, h, j)
					break
				}
			}
		}
	}
}

// TestSessionKeyReadsLabelSnapshot labels a session's unknown host after
// NewProfiler: the profiler reads labels from its snapshot, so neither
// the key nor the profile may change until the next profiler.
func TestSessionKeyReadsLabelSnapshot(t *testing.T) {
	fx := newProfilingFixture(t, 0.5)
	p := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5})
	session := []string{fx.ta[0], fx.ta[1], "late-labelled.example"}
	key := p.SessionKey(session)
	vec, err := p.ProfileSession(session)
	if err != nil {
		t.Fatal(err)
	}
	v := fx.tax.NewVector()
	v[3] = 1
	fx.ont.Add("late-labelled.example", v)
	if got := p.SessionKey(session); got != key {
		t.Fatalf("key moved after Ontology.Add: %q, was %q", got, key)
	}
	if got, err := p.ProfileSession(session); err != nil || !slices.Equal(got, vec) {
		t.Fatalf("profile moved after Ontology.Add: %v (%v), was %v", got, err, vec)
	}
	if next := NewProfiler(fx.model, fx.ont, ProfilerConfig{N: 5}); next.SessionKey(session) == key {
		t.Fatal("the next profiler's key misses the newly labelled host")
	}
}
