//go:build !race

package index

// raceEnabled lets the byte-budget churn skip under the race detector.
const raceEnabled = false
