//go:build race

package wire

// raceEnabled lets memory-budget tests skip under the race detector, whose
// shadow memory counts as heap.
const raceEnabled = true
