package sched_test

import (
	"fmt"

	"mmprofile/examples/broadcast/sched"
)

// Example builds a broadcast-disk schedule over skewed demand and compares
// its expected wait with profile-blind round-robin.
func Example() {
	items := []sched.Item{
		{ID: 0, Demand: 16}, // hot
		{ID: 1, Demand: 16},
		{ID: 2, Demand: 1}, // cold
		{ID: 3, Demand: 1},
		{ID: 4, Demand: 1},
		{ID: 5, Demand: 1},
	}
	disk, err := sched.Build(items, sched.Config{Disks: 2, MaxFrequency: 4})
	if err != nil {
		panic(err)
	}
	flat := sched.FlatSchedule(items)
	fmt.Printf("hot item frequency: %d per cycle (flat: %d)\n", disk.Frequency(0), flat.Frequency(0))
	fmt.Printf("broadcast-disk beats flat: %v\n",
		disk.ExpectedLatency(items) < flat.ExpectedLatency(items))
	// Output:
	// hot item frequency: 3 per cycle (flat: 1)
	// broadcast-disk beats flat: true
}
