//go:build !race

package provabs_test

// raceEnabled reports a race-detector build, whose instrumentation slows
// every memory access: timings are then not the program's.
const raceEnabled = false
