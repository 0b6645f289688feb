//go:build !amd64

package index

// dot32 returns the float32 inner product of two equal-length vectors
// under the lane contract in dot.go.
func dot32(a, b []float32) float32 { return dot32Portable(a, b) }

// dot32x4 scores q against four rows of m at the element offsets off.
func dot32x4(q, m []float32, off *[4]int, out *[4]float32) { dot32x4Portable(q, m, off, out) }
