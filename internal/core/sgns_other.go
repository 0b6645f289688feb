//go:build !amd64

package core

// useAVX stays false off amd64, where the portable pair is the only one.
var useAVX = false

// sgnsDotRows sets out[k] to the float32 inner product of c with the row
// of m at element offset off[k], under the contract in sgns.go.
func sgnsDotRows(c, m []float32, off []int, out []float32) { sgnsDotRowsPortable(c, m, off, out) }

// sgnsUpdateRows adds g[k]·(row k) to neu and g[k]·c to row k of m for
// every offset, under the contract in sgns.go.
func sgnsUpdateRows(g, c, m []float32, off []int, neu []float32) {
	sgnsUpdateRowsPortable(g, c, m, off, neu)
}
