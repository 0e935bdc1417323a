//go:build !race

package core

// raceEnabled lets the journal's heap budget skip under the race detector.
const raceEnabled = false
