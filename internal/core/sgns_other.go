//go:build !amd64

package core

// sgnsPath is the portable pair off amd64, the only one there.
var sgnsPath = sgnsPortable

// dotRows is sgnsDotRows for a caller that has proven its rows.
func dotRows(c, m []float32, off []int, out []float32) { sgnsDotRowsPortable(c, m, off, out) }

// updateRows is sgnsUpdateRows for a caller that has proven its rows.
func updateRows(g, c, m []float32, off []int, neu []float32, centre bool) {
	sgnsUpdateRowsPortable(g, c, m, off, neu, centre)
}
