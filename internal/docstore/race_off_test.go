//go:build !race

package docstore

// raceEnabled lets the memory budget skip under the race detector.
const raceEnabled = false
