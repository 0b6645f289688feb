package core

import "hostprof/internal/index"

// sgnsPath is the pair dotRows and updateRows run: AVX where
// internal/index's CPU check finds AVX2, which implies the AVX these
// kernels use, else SSE2. Tests set it to run every pair, the portable
// one included, on the same machine.
var sgnsPath = func() int {
	if index.HasAVX2() {
		return sgnsAVX
	}
	return sgnsSSE2
}()

// dotRows is sgnsDotRows without its bounds check, for a caller that
// has proven every row inside m (trainSequence).
func dotRows(c, m []float32, off []int, out []float32) {
	switch sgnsPath {
	case sgnsAVX:
		sgnsDotRowsAVX(c, m, off, out)
	case sgnsSSE2:
		sgnsDotRowsAsm(c, m, off, out)
	default:
		sgnsDotRowsPortable(c, m, off, out)
	}
}

// updateRows is sgnsUpdateRows without its bounds check, for a caller
// that has proven every row inside m (trainSequence).
func updateRows(g, c, m []float32, off []int, neu []float32, centre bool) {
	switch sgnsPath {
	case sgnsAVX:
		sgnsUpdateRowsAVX(g, c, m, off, neu, centre)
	case sgnsSSE2:
		sgnsUpdateRowsAsm(g, c, m, off, neu, centre)
	default:
		sgnsUpdateRowsPortable(g, c, m, off, neu, centre)
	}
}

// The assembly reads len(c) values from every row, and from neu, through
// raw pointers without a bounds check: sgnsDotRows and sgnsUpdateRows
// (sgns.go) check, and trainSequence's rows are in bounds by
// construction.

//go:noescape
func sgnsDotRowsAsm(c, m []float32, off []int, out []float32)

//go:noescape
func sgnsUpdateRowsAsm(g, c, m []float32, off []int, neu []float32, centre bool)

//go:noescape
func sgnsDotRowsAVX(c, m []float32, off []int, out []float32)

//go:noescape
func sgnsUpdateRowsAVX(g, c, m []float32, off []int, neu []float32, centre bool)
