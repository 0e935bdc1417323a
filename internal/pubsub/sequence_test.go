package pubsub

import (
	"sync"
	"testing"
)

// TestDeliverySequenceAndDropAccounting pins the drop-oldest policy's
// observability contract: with a queue of 2 and 5 matching publishes, the
// three oldest deliveries are discarded, the drop counter says exactly 3,
// the next sequence number says exactly 5, and the two survivors carry the
// two highest sequence numbers — so a consumer can reconcile
// received + queued + dropped == nextSeq with nothing lost silently.
func TestDeliverySequenceAndDropAccounting(t *testing.T) {
	b := New(Options{Threshold: 0.3, QueueSize: 2})
	sub, err := b.Subscribe("alice", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, n := b.PublishVector(vec("cat", 1.0)); n != 1 {
			t.Fatalf("publish %d delivered to %d subscribers", i, n)
		}
	}
	next, dropped := sub.DeliveryStats()
	if next != 5 || dropped != 3 {
		t.Fatalf("DeliveryStats = (next %d, dropped %d), want (5, 3)", next, dropped)
	}
	var seqs []uint64
	for d, ok := recv(sub, false); ok; d, ok = recv(sub, false) {
		seqs = append(seqs, d.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("surviving seqs = %v, want [3 4]", seqs)
	}
	if got := uint64(len(seqs)) + dropped; got != next {
		t.Fatalf("received %d + dropped %d = %d, want nextSeq %d", len(seqs), dropped, got, next)
	}
}

// TestConcurrentPublishDrainResubscribe churns one user through
// subscribe → drain → unsubscribe while publishers hammer matching
// documents, exercising the deliver-vs-close interleaving and a stale
// handle outliving its id's re-subscription. Run under -race this is the
// session layer's data-race canary; the assertions also hold without it.
func TestConcurrentPublishDrainResubscribe(t *testing.T) {
	b := New(Options{Threshold: 0.1, QueueSize: 4})
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.PublishVector(vec("cat", 1.0))
				}
			}
		}()
	}
	var stale *Subscription
	for i := 0; i < 200; i++ {
		sub, err := b.Subscribe("alice", trainedMM("cat"))
		if err != nil {
			t.Fatal(err)
		}
		var drainWG sync.WaitGroup
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			received := uint64(0)
			for _, ok := recv(sub, true); ok; _, ok = recv(sub, true) {
				received++
			}
			// The stream is closed and drained: the accounting must balance
			// exactly, or a delivery was lost without being counted.
			next, dropped := sub.DeliveryStats()
			if received+dropped != next {
				t.Errorf("iter %d: received %d + dropped %d != nextSeq %d", i, received, dropped, next)
			}
		}()
		if stale != nil && stale.ProfileSize() != 0 {
			t.Fatalf("iter %d: the previous round's handle reads the re-subscribed profile", i)
		}
		b.Unsubscribe("alice")
		drainWG.Wait() // returns only once the unsubscribe has closed the stream
		stale = sub
	}
	close(stop)
	pubWG.Wait()
	if got := b.Stats().Subscribers; got != 0 {
		t.Fatalf("%d subscribers left registered, want 0", got)
	}
}
