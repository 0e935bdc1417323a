//go:build !race

package wire

// raceEnabled lets memory-budget tests skip under the race detector.
const raceEnabled = false
