//go:build race

package server

// raceDetectorEnabled reports whether this test binary was built with
// the race detector. Allocation-count guards skip under -race: the
// detector's runtime allocates on its own and AllocsPerRun counts it.
const raceDetectorEnabled = true
