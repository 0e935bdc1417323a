//go:build race

package index

// raceEnabled lets the byte-budget churn skip under the race detector, which
// slows its 16 000 single-threaded reindexes tenfold and changes no capacity.
const raceEnabled = true
