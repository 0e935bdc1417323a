package pubsub

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestQueueSlotIsSixteenBytes: a queued delivery is its document and its
// score; the sequence number is where it stands in the queue.
func TestQueueSlotIsSixteenBytes(t *testing.T) {
	if sz := unsafe.Sizeof(queueSlot{}); sz != 16 {
		t.Errorf("a queue slot is %d bytes, want 16", sz)
	}
}

// TestRingEqualsModel drives one subscriber's queue with random deliver /
// Take(k) / unsubscribe steps beside a plain-slice model of the drop-oldest
// contract that holds every Delivery whole — the ring stores none of their
// sequence numbers — at queue sizes that exercise the degenerate ring
// (1, 2), a non-power-of-two cap (5) and the default (128). After every
// step the deliveries taken are exactly the model's, document, score and
// sequence number, ascending; taken + dropped + queued == nextSeq; and the
// ring's capacity is one of 0, 4, 8, …, QueueSize, summed into
// mm_pubsub_queue_slots.
func TestRingEqualsModel(t *testing.T) {
	for _, size := range []int{1, 2, 5, 128} {
		rng := rand.New(rand.NewSource(int64(size)))
		b := New(Options{QueueSize: size})
		slots := func() float64 { return b.Metrics().Snapshot()["mm_pubsub_queue_slots"].(float64) }
		for round := 0; round < 20; round++ {
			sub, err := b.Subscribe("u", trainedMM("cat"))
			if err != nil {
				t.Fatal(err)
			}
			var (
				model          []Delivery // what is queued, oldest first
				next, dropped  uint64
				taken          uint64
				lastTaken      = int64(-1)
				closed         bool
				stepsAfterDone = 0
			)
			buf := make([]Delivery, size+2)
			for step := 0; stepsAfterDone < 10; step++ {
				switch r := rng.Intn(100); {
				case r < 55: // deliver, in bursts that overflow the smaller queues
					for i := rng.Intn(4); i >= 0; i-- {
						d := Delivery{Doc: rng.Int63(), Score: rng.Float64()}
						if ok, _ := b.deliver(sub.sub, d.Doc, d.Score); ok == closed {
							t.Fatalf("size %d: deliver on closed=%v subscriber returned %v", size, closed, ok)
						}
						if closed {
							continue
						}
						if len(model) == size {
							model = model[1:]
							dropped++
						}
						d.Seq = next
						model = append(model, d)
						next++
					}
				case r < 98:
					k := rng.Intn(len(buf) + 1)
					n, gotNext, gotDropped, gotClosed := sub.Take(buf[:k])
					want := model[:min(k, len(model))]
					if n != len(want) {
						t.Fatalf("size %d step %d: Take(%d) moved %d, model %d", size, step, k, n, len(want))
					}
					for i, d := range buf[:n] {
						if d != want[i] || int64(d.Seq) <= lastTaken {
							t.Fatalf("size %d step %d: took %+v at %d, model %+v, last taken %d", size, step, d, i, want[i], lastTaken)
						}
						lastTaken = int64(d.Seq)
					}
					model = model[n:]
					taken += uint64(n)
					if gotNext != next || gotDropped != dropped || gotClosed != (closed && len(model) == 0) {
						t.Fatalf("size %d step %d: Take reported next %d dropped %d closed %v, model %d %d %v",
							size, step, gotNext, gotDropped, gotClosed, next, dropped, closed && len(model) == 0)
					}
				default:
					b.Unsubscribe("u")
					closed = true
				}
				if closed {
					stepsAfterDone++
				}
				s := sub.sub
				if taken+dropped+uint64(s.queued) != next || s.queued != len(model) {
					t.Fatalf("size %d step %d: taken %d + dropped %d + queued %d != nextSeq %d (model queued %d)",
						size, step, taken, dropped, s.queued, next, len(model))
				}
				c := len(s.ring)
				if c != 0 && c != size && (c >= size || c < 4 || c&(c-1) != 0) {
					t.Fatalf("size %d step %d: ring capacity %d is not in 0, 4, 8, …, %d", size, step, c, size)
				}
				if closed {
					c = 0 // a subscriber that left is no longer counted, whatever its ring still holds
				}
				if slots() != float64(c) {
					t.Fatalf("size %d step %d: mm_pubsub_queue_slots = %v, want %d (closed %v)", size, step, slots(), c, closed)
				}
			}
		}
	}
}

// TestNoLostWakeup: four publishers and two consumers blocked between
// wakes of one subscriber, each registered through OnReady and holding at
// most one token for any number of queued deliveries. A Take that leaves
// deliveries behind must wake again — a first wave has to drain completely
// with nobody closing anything — and an unsubscribe in the middle of the
// second wave has to return both consumers with every sequence number
// either taken exactly once or counted as dropped.
func TestNoLostWakeup(t *testing.T) {
	b := New(Options{QueueSize: 8})
	sub, err := b.Subscribe("u", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		seen  = map[uint64]int{}
		taken atomic.Uint64
	)
	var consumers sync.WaitGroup
	for c := 0; c < 2; c++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			ready, cancel := readyChan(sub)
			defer cancel()
			var buf [3]Delivery
			for {
				<-ready
				n, _, _, closed := sub.Take(buf[:])
				mu.Lock()
				for _, d := range buf[:n] {
					seen[d.Seq]++
				}
				mu.Unlock()
				taken.Add(uint64(n))
				if closed {
					return
				}
			}
		}()
	}
	wave := func(perPublisher int, during func()) {
		var pubs sync.WaitGroup
		for p := 0; p < 4; p++ {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for i := 0; i < perPublisher; i++ {
					b.deliver(sub.sub, int64(i), 0)
				}
			}()
		}
		during()
		pubs.Wait()
	}

	wave(2000, func() {})
	deadline := time.Now().Add(10 * time.Second)
	for {
		next, dropped := sub.DeliveryStats()
		if taken.Load()+dropped == next {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("consumers stalled with deliveries queued: taken %d + dropped %d != nextSeq %d", taken.Load(), dropped, next)
		}
		time.Sleep(time.Millisecond)
	}

	wave(2000, func() {
		for next, _ := sub.DeliveryStats(); next < 10000; next, _ = sub.DeliveryStats() {
			time.Sleep(50 * time.Microsecond)
		}
		b.Unsubscribe("u")
	})
	done := make(chan struct{})
	go func() { consumers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a consumer waiting for its wake did not return after the unsubscribe")
	}
	next, dropped := sub.DeliveryStats()
	if got := uint64(len(seen)) + dropped; got != next {
		t.Fatalf("distinct seqs taken %d + dropped %d = %d, want nextSeq %d", len(seen), dropped, got, next)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d taken %d times", seq, n)
		}
	}
}
