package pubsub

import (
	"fmt"
	"sync"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// published is one document's outcome.
type published struct {
	Doc        int64
	Deliveries int
}

// publishConcurrently publishes every vector from its own goroutine, all
// released together, and returns the outcomes in input order.
func publishConcurrently(b *Broker, vecs []vsm.Vector) []published {
	out := make([]published, len(vecs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			doc, n := b.PublishVector(vecs[i])
			out[i] = published{Doc: doc, Deliveries: n}
		}(i)
	}
	close(start)
	wg.Wait()
	return out
}

func TestConcurrentPublishVector(t *testing.T) {
	b := New(Options{Threshold: 0.3, QueueSize: 64})
	catSub, err := b.Subscribe("cat-fan", trainedMM("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("trader", trainedMM("stock", "bond")); err != nil {
		t.Fatal(err)
	}

	docs := []vsm.Vector{
		vec("cat", 1.0, "dog", 1.0),      // → cat-fan
		vec("stock", 1.0, "bond", 1.0),   // → trader
		vec("weather", 1.0, "rain", 1.0), // → nobody
	}
	results := publishConcurrently(b, docs)
	wantDeliveries := []int{1, 1, 0}
	seen := map[int64]bool{}
	for i, r := range results {
		if r.Deliveries != wantDeliveries[i] {
			t.Errorf("doc %d delivered to %d subscribers, want %d", i, r.Deliveries, wantDeliveries[i])
		}
		if seen[r.Doc] {
			t.Errorf("duplicate document id %d across concurrent publishes", r.Doc)
		}
		seen[r.Doc] = true
	}
	if d, ok := recv(catSub, false); !ok {
		t.Fatal("cat-fan got no delivery")
	} else if d.Doc != results[0].Doc {
		t.Errorf("cat-fan received doc %d, want %d", d.Doc, results[0].Doc)
	}
	if got := b.Stats(); got.Published != int64(len(docs)) {
		t.Errorf("Published = %d, want %d", got.Published, len(docs))
	}
}

func TestConcurrentPublishPages(t *testing.T) {
	b := New(Options{Threshold: 0.05, QueueSize: 64, RetainContent: true})
	pages := []string{
		"the cat and the dog played in the garden",
		"stock markets rallied as bond yields fell",
		"cat videos dominate the internet",
	}
	ids := make([]int64, len(pages))
	var wg sync.WaitGroup
	for i := range pages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], _ = b.Publish(pages[i])
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if v, ok := b.DocumentVector(id); !ok || v.IsZero() {
			t.Errorf("page %d: document vector missing for id %d", i, id)
		}
		if c, ok := b.DocumentContent(id); !ok || c != pages[i] {
			t.Errorf("page %d: content mismatch for id %d: %q", i, id, c)
		}
	}
}

// TestConcurrentPublishMatchesSequential checks that documents published
// all at once deliver exactly what the same documents published one at a
// time would.
func TestConcurrentPublishMatchesSequential(t *testing.T) {
	mk := func() (*Broker, []vsm.Vector) {
		b := New(Options{Threshold: 0.3, QueueSize: 256})
		for i := 0; i < 10; i++ {
			if _, err := b.Subscribe(fmt.Sprintf("u%d", i), trainedMM(fmt.Sprintf("topic%d", i%4))); err != nil {
				t.Fatal(err)
			}
		}
		var docs []vsm.Vector
		for i := 0; i < 20; i++ {
			docs = append(docs, vec(fmt.Sprintf("topic%d", i%4), 1.0, "common", 0.2))
		}
		return b, docs
	}
	b, docs := mk()
	concurrent := publishConcurrently(b, docs)
	b, docs = mk()
	for i, d := range docs {
		if _, n := b.PublishVector(d); n != concurrent[i].Deliveries {
			t.Errorf("doc %d: %d deliveries published concurrently, %d one at a time",
				i, concurrent[i].Deliveries, n)
		}
	}
}

// TestBrokerConcurrentStress mixes concurrent publishes with subscribe/
// feedback/unsubscribe churn; meaningful under -race.
func TestBrokerConcurrentStress(t *testing.T) {
	b := New(Options{Threshold: 0.2, QueueSize: 16})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for j := 0; j < 4; j++ {
					b.PublishVector(vec(fmt.Sprintf("topic%d", (i+j)%5), 1.0))
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("churn%d-%d", g, i)
				sub, err := b.Subscribe(id, trainedMM(fmt.Sprintf("topic%d", i%5)))
				if err != nil {
					t.Errorf("Subscribe(%s): %v", id, err)
					continue
				}
				if d, ok := recv(sub, false); ok {
					_ = sub.Feedback(d.Doc, filter.Relevant)
				}
				if i%2 == 0 {
					b.Unsubscribe(id)
				}
			}
		}(g)
	}
	wg.Wait()
	st := b.Stats()
	if st.Published != 360 { // 3 publishers × 30 rounds × 4 docs
		t.Errorf("Published = %d, want 360", st.Published)
	}
	if st.Subscribers != 30 {
		t.Errorf("Subscribers = %d, want 30", st.Subscribers)
	}
}
