//go:build race

package pubsub

// publishAllocsMax under the race detector: sync.Pool then drops a random
// quarter of its Puts, so the same publish read 10–12 allocs/op at 119a9e4
// across runs, attribution on or off, against 7 in a plain build.
const publishAllocsMax = 12

// raceEnabled lets memory-budget tests skip under the race detector.
const raceEnabled = true
