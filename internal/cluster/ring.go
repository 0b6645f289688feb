// Package cluster is the horizontal axis of the profiling backend: a
// stateless gateway that consistent-hashes users across N backend
// shards, fans batch work out scatter-gather, and distributes one
// trained model cluster-wide as a versioned artifact.
//
// Scale rationale: the paper's observer watches entire populations (600M
// connections over six months, Section 3) — no single node ingests or
// serves that. The design keeps every hard problem in exactly one
// place:
//
//   - Placement is deterministic — a consistent-hash ring with virtual
//     nodes maps each user ID to one owning shard, so a user's visit
//     history accumulates on a single store and sessions never span
//     shards.
//   - The gateway is stateless — any number of gateways over the same
//     backend list compute identical placement; losing one loses
//     nothing.
//   - Model state is replicated, not partitioned — training happens on
//     a designated shard over its keyspace, and the resulting versioned
//     artifact (see store.ModelArtifact) is shipped to every peer, so
//     profile quality is uniform regardless of which shard answers.
//   - Failure is partial — a dead shard sheds exactly its keyspace
//     (reports for its users are refused with Retry-After, batch
//     results degrade per-session), and the cluster converges again
//     when it returns.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Placement is a
// pure function of the member set: every gateway (and every test) that
// builds a ring over the same node names computes the same owner for
// every user, with no coordination. The ring is immutable after build —
// membership changes build a new ring via SetNodes — so reads are
// lock-free.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash, ascending
	nodes  []string    // member names, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVirtualNodes balances placement evenness against ring size:
// 128 vnodes keeps the per-shard keyspace share within a few percent of
// uniform for small clusters while the ring stays a few KiB.
const DefaultVirtualNodes = 128

// NewRing builds a ring over nodes with the given virtual-node count
// per member (<= 0 selects DefaultVirtualNodes). Node names must be
// unique and non-empty; order does not matter — placement depends only
// on the set.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	if err := r.build(nodes); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Ring) build(nodes []string) error {
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	r.nodes = append([]string(nil), nodes...)
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(nodes)*r.vnodes)
	for _, n := range r.nodes {
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Equal hashes (vanishingly rare) tie-break by name so placement
		// stays deterministic across gateways.
		return r.points[i].node < r.points[j].node
	})
	return nil
}

// pointHash places virtual node v of a member on the ring: FNV-1a over
// "name#v" (stable across processes, architectures and restarts),
// finalized through mix64. The finalizer matters: near-identical names
// ("http://s1" vs "http://s2") leave FNV's sequential state correlated,
// which clusters the members' points into tight groups and hands one
// member most of the keyspace; the multiply-xorshift finalizer breaks
// that correlation.
func pointHash(node string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'#'})
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// userHash spreads user IDs over the key space (splitmix64: sequential
// IDs — exactly what synth worlds and real install counters produce —
// land uniformly).
func userHash(user int) uint64 {
	return mix64(uint64(user) + 0x9e3779b97f4a7c15)
}

// mix64 is the splitmix64 finalizer, a fast bijective mixer whose
// output bits each depend on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Owner returns the shard owning a user: the first ring point at or
// after the user's hash, wrapping at the top. ok is false only for an
// empty ring.
func (r *Ring) Owner(user int) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := userHash(user)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// OwnerOfHash returns the member owning a raw ring position: the first
// point at or after h, wrapping at the top. ok is false only for an
// empty ring.
func (r *Ring) OwnerOfHash(h uint64) (node string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node, true
}

// MovedRange is one keyspace arc whose owner differs between two rings:
// the half-open hash interval (Lo, Hi], owned by From in the old ring
// and To in the new one. Lo >= Hi means the arc wraps through zero.
type MovedRange struct {
	Lo, Hi   uint64
	From, To string
}

// Contains reports whether hash h falls inside the arc.
func (m MovedRange) Contains(h uint64) bool {
	if m.Lo < m.Hi {
		return h > m.Lo && h <= m.Hi
	}
	return h > m.Lo || h <= m.Hi
}

// DiffRings computes the keyspace a resize moves: the arcs of the hash
// circle whose owner under newRing differs from their owner under
// oldRing, with adjacent same-(From,To) arcs merged. The construction
// walks the sorted union of both rings' points — between two adjacent
// union points no point of either ring intervenes, so each ring's owner
// is constant across the arc and one probe per arc suffices. At most one
// returned range wraps through zero; together the ranges are disjoint
// and tile exactly the moved keyspace, so routing can answer "is this
// user migrating" with one range lookup.
func DiffRings(oldRing, newRing *Ring) []MovedRange {
	if oldRing == nil || newRing == nil || len(oldRing.points) == 0 || len(newRing.points) == 0 {
		return nil
	}
	union := make([]uint64, 0, len(oldRing.points)+len(newRing.points))
	for _, p := range oldRing.points {
		union = append(union, p.hash)
	}
	for _, p := range newRing.points {
		union = append(union, p.hash)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	// Dedup: coincident points produce empty arcs.
	uniq := union[:0]
	for i, h := range union {
		if i == 0 || h != uniq[len(uniq)-1] {
			uniq = append(uniq, h)
		}
	}
	union = uniq

	var out []MovedRange
	for i, hi := range union {
		lo := union[(i+len(union)-1)%len(union)] // wraps for i == 0
		from, _ := oldRing.OwnerOfHash(hi)
		to, _ := newRing.OwnerOfHash(hi)
		if from == to {
			continue
		}
		// Merge with the previous range when the arcs are adjacent and
		// move between the same pair — but never into a full circle,
		// which Lo == Hi could not represent unambiguously.
		if n := len(out); n > 0 && out[n-1].Hi == lo &&
			out[n-1].From == from && out[n-1].To == to && n > 1 {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, MovedRange{Lo: lo, Hi: hi, From: from, To: to})
	}
	// The wrap arc (built from i == 0) sits first; if the last range is
	// adjacent to it across zero and moves between the same pair, merge
	// them so the tiling has no artificial seam at the origin.
	if n := len(out); n > 2 && out[n-1].Hi == out[0].Lo &&
		out[n-1].From == out[0].From && out[n-1].To == out[0].To {
		out[n-1].Hi = out[0].Hi
		out = out[1:]
	}
	return out
}

// Nodes returns the sorted member set.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Equal reports whether the ring spans exactly the given node set.
func (r *Ring) Equal(nodes []string) bool {
	if len(nodes) != len(r.nodes) {
		return false
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if r.nodes[i] != n {
			return false
		}
	}
	return true
}
