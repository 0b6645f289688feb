//go:build !amd64

package index

// dot32 returns the float32 inner product of two equal-length vectors
// under the lane contract in dot.go.
func dot32(a, b []float32) float32 { return dot32Portable(a, b) }

// dot32x4 scores q against four consecutive packed rows.
func dot32x4(q, rows []float32, out *[4]float32) { dot32x4Portable(q, rows, out) }
