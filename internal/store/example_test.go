package store_test

import (
	"fmt"
	"os"

	"mmprofile/internal/filter"
	"mmprofile/internal/store"
	"mmprofile/internal/vsm"
)

// Example walks the durability cycle: journal a subscription and a
// judgment, "crash", reopen, and restore the exact profile by replay.
func Example() {
	dir, _ := os.MkdirTemp("", "store-example")
	defer os.RemoveAll(dir)

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		panic(err)
	}
	doc := vsm.FromMap(map[string]float64{"cat": 1, "dog": 0.5}).Normalized()
	s.AppendSubscribe("alice", "MM", nil)
	s.AppendFeedback("alice", doc, filter.Relevant)
	s.Close() // crash or restart here loses nothing

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		panic(err)
	}
	defer s2.Close()
	learners, err := s2.RestoreAll()
	if err != nil {
		panic(err)
	}
	alice := learners["alice"]
	fmt.Printf("restored %s profile with %d vector(s), score %.2f\n",
		alice.Name(), alice.ProfileSize(), alice.Score(doc))
	// Output:
	// restored MM profile with 1 vector(s), score 1.00
}
