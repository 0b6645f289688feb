package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministicPlacement: placement is a pure function of the
// member set — node order, ring instance, and process must not matter,
// or gateways would disagree on owners.
func TestRingDeterministicPlacement(t *testing.T) {
	a, err := NewRing([]string{"http://s1", "http://s2", "http://s3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://s3", "http://s1", "http://s2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10_000; u++ {
		oa, ok := a.Owner(u)
		ob, _ := b.Owner(u)
		if !ok || oa != ob {
			t.Fatalf("user %d: owner %q vs %q (ok=%v)", u, oa, ob, ok)
		}
	}
	if !a.Equal([]string{"http://s2", "http://s3", "http://s1"}) {
		t.Fatal("Equal rejects the same set in a different order")
	}
	if a.Equal([]string{"http://s1", "http://s2"}) {
		t.Fatal("Equal accepts a subset")
	}
}

// TestRingSpread: with the default vnode count, no shard's share of a
// 30k-user keyspace strays badly from uniform.
func TestRingSpread(t *testing.T) {
	nodes := []string{"http://s1", "http://s2", "http://s3"}
	r, err := NewRing(nodes, DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	const users = 30_000
	spread := r.Spread(users)
	total := 0
	for _, n := range nodes {
		got := spread[n]
		total += got
		share := float64(got) / users
		if share < 0.15 || share > 0.55 {
			t.Errorf("%s owns %.1f%% of the keyspace; want roughly 33%%", n, share*100)
		}
	}
	if total != users {
		t.Fatalf("owners for %d of %d users", total, users)
	}
}

// TestRingStabilityOnMembershipChange is the consistent-hashing
// contract: removing a node moves exactly that node's keys (every
// other key keeps its owner), and adding a node steals only about
// 1/(n+1) of the keyspace.
func TestRingStabilityOnMembershipChange(t *testing.T) {
	three := []string{"http://s1", "http://s2", "http://s3"}
	r3, err := NewRing(three, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(three[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	const users = 20_000
	for u := 0; u < users; u++ {
		before, _ := r3.Owner(u)
		after, _ := r2.Owner(u)
		if before != "http://s3" && after != before {
			t.Fatalf("user %d moved %s → %s although its owner survived", u, before, after)
		}
	}

	r4, err := NewRing(append([]string{"http://s4"}, three...), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for u := 0; u < users; u++ {
		before, _ := r3.Owner(u)
		after, _ := r4.Owner(u)
		if after != before {
			if after != "http://s4" {
				t.Fatalf("user %d moved %s → %s, not to the new node", u, before, after)
			}
			moved++
		}
	}
	// Ideal is 25%; vnode granularity wobbles it. Well under half the
	// keyspace must stay put for "consistent" to mean anything.
	if frac := float64(moved) / users; frac < 0.10 || frac > 0.45 {
		t.Fatalf("adding a 4th node moved %.1f%% of keys; want ~25%%", frac*100)
	}
}

// TestRingValidation: duplicate or empty names fail construction, and
// an empty ring owns nothing rather than panicking.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty node name accepted")
	}
	empty, err := NewRing(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if owner, ok := empty.Owner(1); ok || owner != "" {
		t.Fatalf("empty ring returned owner %q", owner)
	}
}

func BenchmarkRingOwner(b *testing.B) {
	nodes := make([]string, 16)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://shard-%d", i)
	}
	r, err := NewRing(nodes, DefaultVirtualNodes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Owner(i); !ok {
			b.Fatal("no owner")
		}
	}
}

// TestRingMinimalMovementAcrossVnodeCounts: the consistent-hashing
// contract must hold at every vnode granularity a deployment might pick,
// not just the default — growing a cluster moves keys only TO the new
// node, shrinking moves only the removed node's keys, at vnodes 1, 8
// and 64.
func TestRingMinimalMovementAcrossVnodeCounts(t *testing.T) {
	const users = 20_000
	three := []string{"http://s1", "http://s2", "http://s3"}
	four := append([]string{"http://s4"}, three...)
	for _, vn := range []int{1, 8, 64} {
		r3, err := NewRing(three, vn)
		if err != nil {
			t.Fatal(err)
		}
		r4, err := NewRing(four, vn)
		if err != nil {
			t.Fatal(err)
		}
		grew := 0
		for u := 0; u < users; u++ {
			before, _ := r3.Owner(u)
			after, _ := r4.Owner(u)
			if after != before {
				if after != "http://s4" {
					t.Fatalf("vnodes=%d: user %d moved %s → %s, not to the joiner", vn, u, before, after)
				}
				grew++
			}
		}
		if grew == 0 {
			t.Fatalf("vnodes=%d: joiner received no keys", vn)
		}
		// Upper bound loosens with coarser rings: a single vnode per
		// member makes arc sizes very uneven, but even then the joiner
		// must not swallow a majority of the keyspace.
		if frac := float64(grew) / users; frac > 0.60 {
			t.Fatalf("vnodes=%d: grow moved %.1f%% of keys; want ~25%%", vn, frac*100)
		}
		shrunk := 0
		for u := 0; u < users; u++ {
			before, _ := r4.Owner(u)
			after, _ := r3.Owner(u)
			if before == "http://s4" {
				shrunk++
				continue
			}
			if after != before {
				t.Fatalf("vnodes=%d: user %d moved %s → %s although its owner survived the shrink", vn, u, before, after)
			}
		}
		if shrunk != grew {
			t.Fatalf("vnodes=%d: shrink moved %d keys, grow moved %d — not inverses", vn, shrunk, grew)
		}
	}
}

// TestDiffRingsTilesMovedKeyspace: DiffRings must agree exactly with
// brute-force owner comparison — a user's owner changed if and only if
// its hash falls in exactly one returned range, and that range's
// From/To name the old and new owners. Checked across vnode
// granularities and for both grow and shrink.
func TestDiffRingsTilesMovedKeyspace(t *testing.T) {
	const users = 20_000
	three := []string{"http://s1", "http://s2", "http://s3"}
	four := append([]string{"http://s4"}, three...)
	for _, vn := range []int{1, 8, 64} {
		for _, dir := range []struct {
			name     string
			old, new []string
		}{
			{"grow", three, four},
			{"shrink", four, three},
		} {
			oldRing, err := NewRing(dir.old, vn)
			if err != nil {
				t.Fatal(err)
			}
			newRing, err := NewRing(dir.new, vn)
			if err != nil {
				t.Fatal(err)
			}
			moved := DiffRings(oldRing, newRing)
			if len(moved) == 0 {
				t.Fatalf("vnodes=%d %s: no moved ranges for a membership change", vn, dir.name)
			}
			wraps := 0
			for _, r := range moved {
				if r.Lo >= r.Hi {
					wraps++
				}
				if r.From == r.To {
					t.Fatalf("vnodes=%d %s: range (%x,%x] moves %s to itself", vn, dir.name, r.Lo, r.Hi, r.From)
				}
			}
			if wraps > 1 {
				t.Fatalf("vnodes=%d %s: %d wrapping ranges, want at most 1", vn, dir.name, wraps)
			}
			for u := 0; u < users; u++ {
				h := userHash(u)
				before, _ := oldRing.Owner(u)
				after, _ := newRing.Owner(u)
				var hits []MovedRange
				for _, r := range moved {
					if r.Contains(h) {
						hits = append(hits, r)
					}
				}
				if len(hits) > 1 {
					t.Fatalf("vnodes=%d %s: user %d in %d ranges; ranges overlap", vn, dir.name, u, len(hits))
				}
				if (before != after) != (len(hits) == 1) {
					t.Fatalf("vnodes=%d %s: user %d moved=%v but diff covers=%v",
						vn, dir.name, u, before != after, len(hits) == 1)
				}
				if len(hits) == 1 && (hits[0].From != before || hits[0].To != after) {
					t.Fatalf("vnodes=%d %s: user %d range says %s→%s, owners say %s→%s",
						vn, dir.name, u, hits[0].From, hits[0].To, before, after)
				}
			}
		}
	}
}

// TestDiffRingsNoChange: identical membership diffs to nothing, and
// degenerate inputs answer nil instead of panicking.
func TestDiffRingsNoChange(t *testing.T) {
	nodes := []string{"http://s1", "http://s2"}
	a, err := NewRing(nodes, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://s2", "http://s1"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moved := DiffRings(a, b); len(moved) != 0 {
		t.Fatalf("identical membership produced %d moved ranges", len(moved))
	}
	empty, err := NewRing(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if moved := DiffRings(a, empty); moved != nil {
		t.Fatalf("diff against an empty ring produced %v", moved)
	}
	if moved := DiffRings(nil, a); moved != nil {
		t.Fatalf("diff against a nil ring produced %v", moved)
	}
}

// TestDiffRingsSingleNodeSwap: replacing the only member moves the whole
// circle; the diff must still avoid the ambiguous Lo == Hi full-circle
// range.
func TestDiffRingsSingleNodeSwap(t *testing.T) {
	a, err := NewRing([]string{"http://old"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://new"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	moved := DiffRings(a, b)
	if len(moved) < 2 {
		t.Fatalf("full-circle move produced %d ranges, want >= 2 (Lo == Hi is ambiguous)", len(moved))
	}
	for u := 0; u < 5_000; u++ {
		h := userHash(u)
		hits := 0
		for _, r := range moved {
			if r.Contains(h) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("user %d covered by %d ranges of a full-circle move, want exactly 1", u, hits)
		}
	}
}

// Spread counts, over users [0, n), how many keys each member owns —
// the placement-evenness check behind the vnode default.
func (r *Ring) Spread(n int) map[string]int {
	out := make(map[string]int, len(r.nodes))
	for u := 0; u < n; u++ {
		if node, ok := r.Owner(u); ok {
			out[node]++
		}
	}
	return out
}
