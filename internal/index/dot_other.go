//go:build !amd64

package index

// dot32 returns the float32 inner product of two equal-length vectors
// under the lane contract in dot.go.
func dot32(a, b []float32) float32 { return dot32Portable(a, b) }

// dot32x4 scores q against four rows of m at the element offsets off.
func dot32x4(q, m []float32, off *[4]int, out *[4]float32) { dot32x4Portable(q, m, off, out) }

// useAVX2 stays false off amd64: the batch scan takes the dot32x4
// fallback.
var useAVX2 = false

// dot32q4x4 is unreachable off amd64, where useAVX2 is false.
func dot32q4x4(qi, m []float32, off *[4]int, out *[16]float32) {
	panic("index: no four-query kernel on this architecture")
}
