//go:build !amd64

package core

// sgnsDot returns the float32 inner product of two equal-length rows
// under the contract in sgns.go.
func sgnsDot(a, b []float32) float32 { return sgnsDotPortable(a, b) }

// sgnsUpdate adds g·o to neu and g·c to o under the contract in sgns.go.
func sgnsUpdate(g float32, c, o, neu []float32) { sgnsUpdatePortable(g, c, o, neu) }
