//go:build !race

package core

// raceEnabled reports a race-detector build, whose runtime allocates
// behind a test's back: allocation counts are then not exact.
const raceEnabled = false
