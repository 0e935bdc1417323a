package pubsub

// recv takes sub's oldest queued delivery through Ready/Take, as every
// consumer does. With wait set it blocks until there is one; ok is false
// when the queue is empty (wait unset) or the subscriber is closed and
// drained.
func recv(sub *Subscription, wait bool) (d Delivery, ok bool) {
	var one [1]Delivery
	for {
		n, _, _, closed := sub.Take(one[:])
		if n == 1 {
			return one[0], true
		}
		if closed || !wait {
			return Delivery{}, false
		}
		<-sub.Ready()
	}
}
