//go:build !race

package pubsub

// publishAllocsMax is what one steady-state PublishVector allocated at
// 119a9e4 with attribution switched off (TestAttributedPublishAddsNoAllocs'
// setup: one subscriber, queue of 1, every publish drops).
const publishAllocsMax = 7

// raceEnabled lets memory-budget tests skip under the race detector.
const raceEnabled = false
