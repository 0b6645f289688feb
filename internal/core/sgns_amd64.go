package core

import "hostprof/internal/index"

// useAVX selects the AVX pair over the SSE2 pair: set at init by
// internal/index's CPU check, whose AVX2 implies the AVX these kernels
// use. Tests clear it to run the SSE2 pair on the same machine.
var useAVX = index.HasAVX2()

// sgnsDotRows sets out[k] to the float32 inner product of c with the row
// of m at element offset off[k], under the contract in sgns.go.
func sgnsDotRows(c, m []float32, off []int, out []float32) {
	if len(out) < len(off) {
		panic("core: sgnsDotRows output shorter than its rows")
	}
	checkRows(len(c), m, off)
	if useAVX {
		sgnsDotRowsAVX(c, m, off, out)
		return
	}
	sgnsDotRowsAsm(c, m, off, out)
}

// sgnsUpdateRows adds g[k]·(row k) to neu and g[k]·c to row k of m for
// every offset, under the contract in sgns.go.
func sgnsUpdateRows(g, c, m []float32, off []int, neu []float32) {
	if len(g) < len(off) || len(neu) < len(c) {
		panic("core: sgnsUpdateRows length mismatch")
	}
	checkRows(len(c), m, off)
	if useAVX {
		sgnsUpdateRowsAVX(g, c, m, off, neu)
		return
	}
	sgnsUpdateRowsAsm(g, c, m, off, neu)
}

// checkRows panics unless every offset starts a whole n-element row of m.
func checkRows(n int, m []float32, off []int) {
	for _, o := range off {
		// A negative offset wraps past len(m) as an unsigned number.
		if uint(o) > uint(len(m)) || n > len(m)-o {
			panic("core: sgns row outside the matrix")
		}
	}
}

// The assembly reads len(c) values from every row, and from neu, through
// raw pointers without a bounds check; the wrappers above are the check.

//go:noescape
func sgnsDotRowsAsm(c, m []float32, off []int, out []float32)

//go:noescape
func sgnsUpdateRowsAsm(g, c, m []float32, off []int, neu []float32)

//go:noescape
func sgnsDotRowsAVX(c, m []float32, off []int, out []float32)

//go:noescape
func sgnsUpdateRowsAVX(g, c, m []float32, off []int, neu []float32)
