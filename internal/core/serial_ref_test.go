package core

import (
	"math"
	"sort"

	"hostprof/internal/stats"
)

// worseNeighbour reports whether a ranks strictly below b under the
// result order shared with internal/index: lower cosine, ties broken by
// higher ID. Applying this total order at every heap comparison — not
// just the final sort — makes the serial scan's kept set deterministic,
// so the equivalence suite can compare it position-by-position against
// the parallel index.
func worseNeighbour(a, b Neighbour) bool {
	return a.Cosine < b.Cosine || (a.Cosine == b.Cosine && a.ID > b.ID)
}

// refNearestToVector is the single-threaded float64 scan the packed index
// replaced, kept as its oracle: the k vocabulary hosts whose central
// embeddings have the highest cosine similarity to query, in decreasing
// order (ties broken by ascending vocabulary ID), each row normalized as
// it is scored. The index must rank like it up to float32 rounding (see
// rankCosTol).
func refNearestToVector(m *Model, query []float64, k int) []Neighbour {
	if k <= 0 {
		return nil
	}
	qn := append([]float64(nil), query...)
	if n := normalize(qn); n == 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return nil // no direction to rank against, as in the packed index
	}
	// Bounded min-heap rooted at the worst kept neighbour.
	h := make([]Neighbour, 0, k+1)
	push := func(n Neighbour) {
		h = append(h, n)
		// Sift up.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worseNeighbour(h[i], h[p]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() {
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < n && worseNeighbour(h[l], h[s]) {
				s = l
			}
			if r < n && worseNeighbour(h[r], h[s]) {
				s = r
			}
			if s == i {
				break
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	row := make([]float64, m.dim)
	for id := 0; id < m.vocab.Len(); id++ {
		for i, x := range m.VectorByID(id) {
			row[i] = float64(x)
		}
		normalize(row)
		cand := Neighbour{ID: id, Cosine: stats.Dot(qn, row)}
		if len(h) < k {
			push(cand)
		} else if worseNeighbour(h[0], cand) {
			pop()
			push(cand)
		}
	}
	sort.Slice(h, func(i, j int) bool { return worseNeighbour(h[j], h[i]) })
	for i := range h {
		h[i].Host = m.vocab.Host(h[i].ID)
	}
	return h
}

// normalize scales x to unit L2 norm in place and returns the original
// norm; a zero vector is left unchanged and 0 returned.
func normalize(x []float64) float64 {
	n := stats.Norm(x)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range x {
		x[i] *= inv
	}
	return n
}
