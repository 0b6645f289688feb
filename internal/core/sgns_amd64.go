package core

// sgnsDot returns the float32 inner product of two equal-length rows
// under the contract in sgns.go.
func sgnsDot(a, b []float32) float32 {
	if len(b) < len(a) {
		panic("core: sgnsDot length mismatch")
	}
	return sgnsDotAsm(a, b)
}

// sgnsUpdate adds g·o to neu and g·c to o under the contract in sgns.go.
func sgnsUpdate(g float32, c, o, neu []float32) {
	if len(o) < len(c) || len(neu) < len(c) {
		panic("core: sgnsUpdate length mismatch")
	}
	sgnsUpdateAsm(g, c, o, neu)
}

// The assembly reads and writes len(a) (resp. len(c)) values through its
// other pointers without a bounds check; the wrappers above are the
// check.

//go:noescape
func sgnsDotAsm(a, b []float32) float32

//go:noescape
func sgnsUpdateAsm(grad float32, c, o, neu []float32)
