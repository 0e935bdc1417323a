package pubsub

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// TestChurnStress runs concurrent Subscribe / Publish / Feedback / Unsubscribe against one broker (meaningful under -race) and
// then checks the cross-layer invariants the sharded design must hold:
//
//   - no ghost index entries: the index holds exactly the live indexed
//     subscribers, none of the unsubscribed ones;
//   - no double-closed queues (a second close would panic the test);
//   - counter agreement: Stats(), the subscriber gauge, and the
//     profile-vector gauge all match ground truth reconstructed from the
//     surviving subscriptions.
func TestChurnStress(t *testing.T) {
	b := New(Options{Threshold: 0.2, QueueSize: 8})

	// One persistent brute-force subscriber keeps the snapshot-and-score
	// path active throughout the churn.
	bruteSub, err := b.Subscribe("brute", opaque{trainedMM("topic0")})
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
				select {
				case d := <-sub.Deliveries():
					_ = sub.Feedback(d.Doc, filter.Relevant) // evicted docs may error; fine
				default:
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

	live := 1 // the brute subscriber
	indexed := 0
	wantVectors := 0
	for _, subs := range kept {
		for _, sub := range subs {
			live++
			indexed++
			wantVectors += sub.ProfileSize()
		}
	}
	wantVectors += bruteSub.ProfileSize()
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
	b.Unsubscribe("brute")
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

// blockingLearner is an unindexable learner whose Score parks until
// released, to hold the brute-force scoring path open mid-publish.
type blockingLearner struct {
	entered chan struct{}
	release chan struct{}
}

func (l *blockingLearner) Name() string                        { return "blocking" }
func (l *blockingLearner) Observe(vsm.Vector, filter.Feedback) {}
func (l *blockingLearner) ProfileSize() int                    { return 0 }
func (l *blockingLearner) Reset()                              {}
func (l *blockingLearner) Score(vsm.Vector) float64 {
	l.entered <- struct{}{}
	<-l.release
	return 0
}

// TestBruteScoreOutsideRegistryLock pins the brute-force scoring fix:
// learners are scored from a snapshot taken under the registry shard
// locks and released before any Score call, so a slow learner can no
// longer stall Subscribe/Unsubscribe (which the old code did by holding
// the subscriber table's read lock across every brute Score).
func TestBruteScoreOutsideRegistryLock(t *testing.T) {
	b := New(Options{Threshold: 0.1})
	l := &blockingLearner{entered: make(chan struct{}), release: make(chan struct{})}
	if _, err := b.Subscribe("slow", l); err != nil {
		t.Fatal(err)
	}
	published := make(chan struct{})
	go func() {
		b.PublishVector(vec("cat", 1.0))
		close(published)
	}()
	<-l.entered // the publish is now parked inside Score

	// Registry mutations across every shard must complete while the brute
	// learner is still being scored.
	churned := make(chan struct{})
	go func() {
		for i := 0; i < 32; i++ {
			id := fmt.Sprintf("fast%d", i)
			if _, err := b.Subscribe(id, trainedMM("dog")); err != nil {
				t.Errorf("Subscribe(%s): %v", id, err)
			}
			b.Unsubscribe(id)
		}
		close(churned)
	}()
	select {
	case <-churned:
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe/unsubscribe churn blocked behind a brute-force Score")
	}
	close(l.release)
	<-published
}
