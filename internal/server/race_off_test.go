//go:build !race

package server

// raceDetectorEnabled reports whether this test binary was built with
// the race detector; see race_on_test.go.
const raceDetectorEnabled = false
