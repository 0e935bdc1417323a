package pubsub

import (
	"fmt"
	"sync"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/rocchio"
)

// TestChurnStress runs concurrent Subscribe / Publish / Feedback / Unsubscribe against one broker (meaningful under -race) and
// then checks the cross-layer invariants the layered design must hold:
//
//   - no ghost index entries: the index holds exactly the live indexed
//     subscribers, none of the unsubscribed ones;
//   - no double-closed queues (a second close would panic the test);
//   - counter agreement: Stats(), the subscriber gauge, and the
//     profile-vector gauge all match ground truth reconstructed from the
//     surviving subscriptions.
func TestChurnStress(t *testing.T) {
	b := New(Options{Threshold: 0.2, QueueSize: 8})

	// One persistent string-vector (non-packed) subscriber stays matchable
	// throughout the churn.
	ri := rocchio.NewRI()
	ri.Observe(vec("topic0", 1.0), filter.Relevant)
	riSub, err := b.Subscribe("ri", ri)
	if err != nil {
		t.Fatal(err)
	}

	const (
		publishers = 4
		pubIters   = 25
		churners   = 4
		churnIters = 30
	)
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pubIters; i++ {
				b.PublishVector(vec(fmt.Sprintf("topic%d", (g+i)%6), 1.0))
				for j := 0; j < 4; j++ {
					b.PublishVector(vec(fmt.Sprintf("topic%d", (g+i+j)%6), 1.0, "common", 0.3))
				}
			}
		}(g)
	}

	kept := make([][]*Subscription, churners)
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churnIters; i++ {
				id := fmt.Sprintf("churn%d-%d", g, i)
				sub, err := b.Subscribe(id, trainedMM(fmt.Sprintf("topic%d", i%6)))
				if err != nil {
					t.Errorf("Subscribe(%s): %v", id, err)
					continue
				}
				if d, ok := recv(sub, false); ok {
					_ = sub.Feedback(d.Doc, filter.Relevant) // evicted docs may error; fine
				}
				if i%3 == 0 {
					kept[g] = append(kept[g], sub)
				} else {
					b.Unsubscribe(id)
				}
			}
		}(g)
	}
	wg.Wait()

	wantPublished := int64(publishers * pubIters * 5) // 1 single-term + 4 two-term per iteration
	st := b.Stats()
	if st.Published != wantPublished {
		t.Errorf("Published = %d, want %d", st.Published, wantPublished)
	}

	live, indexed := 1, 1 // the RI subscriber
	wantVectors := riSub.ProfileSize()
	for _, subs := range kept {
		for _, sub := range subs {
			live++
			indexed++
			wantVectors += sub.ProfileSize()
		}
	}
	if st.Subscribers != live {
		t.Errorf("Stats().Subscribers = %d, want %d", st.Subscribers, live)
	}
	if got := b.reg.len(); got != live {
		t.Errorf("registry count = %d, want %d", got, live)
	}
	// Ghost check: every unsubscribed user must be gone from the index,
	// every kept indexed user present. A Feedback racing an Unsubscribe
	// that re-inserted index entries for a removed user shows up here as
	// Users > indexed.
	if got := b.IndexStats().Users; got != indexed {
		t.Errorf("index users = %d, want %d (ghost or lost entries)", got, indexed)
	}
	if got := b.m.profileVectors.Value(); got != float64(wantVectors) {
		t.Errorf("profileVectors gauge = %v, want %d", got, wantVectors)
	}
	// Unsubscribing every survivor must return all gauges to their floor
	// and close every queue exactly once.
	for _, subs := range kept {
		for _, sub := range subs {
			b.Unsubscribe(sub.ID())
		}
	}
	b.Unsubscribe("ri")
	if got := b.IndexStats().Users; got != 0 {
		t.Errorf("index users after full unsubscribe = %d, want 0", got)
	}
	if got := b.m.profileVectors.Value(); got != 0 {
		t.Errorf("profileVectors gauge after full unsubscribe = %v, want 0", got)
	}
}

// TestFeedbackUnsubscribeNoGhostEntries pins the Feedback/Unsubscribe race
// fix: Feedback re-checks closed and reindexes under the subscriber's
// lock, so a concurrent Unsubscribe (which removes the user's index
// entries under the same lock) can never be followed by a stale SetUser
// re-inserting ghost entries for the removed user.
func TestFeedbackUnsubscribeNoGhostEntries(t *testing.T) {
	for i := 0; i < 200; i++ {
		b := New(Options{Threshold: 0.9, QueueSize: 4, Retention: 8})
		if _, err := b.Subscribe("alice", trainedMM("cat")); err != nil {
			t.Fatal(err)
		}
		doc, _ := b.PublishVector(vec("stock", 1.0))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = b.Feedback("alice", doc, filter.Relevant) // may race the unsubscribe; must not ghost
		}()
		go func() {
			defer wg.Done()
			b.Unsubscribe("alice")
		}()
		wg.Wait()
		if got := b.IndexStats().Users; got != 0 {
			t.Fatalf("iteration %d: %d ghost index user(s) after unsubscribe", i, got)
		}
	}
}
