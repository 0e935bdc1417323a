//go:build race

package core

// raceEnabled lets the journal's heap budget skip under the race detector,
// whose shadow memory is counted as heap.
const raceEnabled = true
