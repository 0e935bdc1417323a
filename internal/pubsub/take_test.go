package pubsub

// readyChan adapts OnReady to a channel for a consumer that blocks: one
// buffered token however many wakes arrive before it is received.
func readyChan(sub *Subscription) (ready <-chan struct{}, cancel func()) {
	ch := make(chan struct{}, 1)
	return ch, sub.OnReady(func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	})
}

// recv takes sub's oldest queued delivery through OnReady/Take, as every
// consumer does. With wait set it blocks until there is one; ok is false
// when the queue is empty (wait unset) or the subscriber is closed and
// drained.
func recv(sub *Subscription, wait bool) (d Delivery, ok bool) {
	ready, cancel := readyChan(sub)
	defer cancel()
	var one [1]Delivery
	for {
		n, _, _, closed := sub.Take(one[:])
		if n == 1 {
			return one[0], true
		}
		if closed || !wait {
			return Delivery{}, false
		}
		<-ready
	}
}
