package pubsub_test

import (
	"fmt"

	"mmprofile/internal/filter"
	"mmprofile/internal/pubsub"
)

// Example walks the full dissemination loop: subscribe with keywords,
// publish pages, receive a delivery, send feedback.
func Example() {
	broker := pubsub.New(pubsub.Options{Threshold: 0.3})

	sub, err := broker.SubscribeKeywords("alice", []string{"jazz", "saxophone"})
	if err != nil {
		panic(err)
	}

	_, n := broker.Publish("<html><body>a jazz saxophone concert downtown</body></html>")
	fmt.Println("deliveries:", n)
	_, n = broker.Publish("<html><body>quarterly bond market report</body></html>")
	fmt.Println("deliveries:", n)

	// A consumer that blocks adapts the wake to a channel holding one token.
	ready := make(chan struct{}, 1)
	cancel := sub.OnReady(func() {
		select {
		case ready <- struct{}{}:
		default:
		}
	})
	defer cancel()
	<-ready // woken at once: a delivery is already queued
	var batch [8]pubsub.Delivery
	n, _, _, _ = sub.Take(batch[:])
	fmt.Println("taken:", n)
	if err := sub.Feedback(batch[0].Doc, filter.Relevant); err != nil {
		panic(err)
	}
	fmt.Println("profile vectors:", sub.ProfileSize())
	// Output:
	// deliveries: 1
	// deliveries: 0
	// taken: 1
	// profile vectors: 1
}
