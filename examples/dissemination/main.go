// Dissemination: the full push-based delivery loop at (small) scale.
//
// Fifty subscribers with random category interests join an in-process
// broker, each backed by a self-adaptive MM profile bootstrapped from
// nothing. Pages from the synthetic collection are published one at a
// time; each subscriber judges whatever is delivered to it (simulated
// feedback), and the profiles — and the shared inverted index — adapt
// online. The example prints delivery precision improving as profiles
// learn.
//
//	go run ./examples/dissemination
package main

import (
	"fmt"
	"math/rand"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
)

const (
	numSubscribers = 50
	numPublished   = 3000
	reportEvery    = 500
	// exploreRate is the chance a reader browses a page that was NOT
	// pushed to it and judges it anyway — the "monitoring" side of the
	// paper's feedback model. Without exploration the loop is closed:
	// profiles only ever see pages they already match and can never
	// discover uncovered interests.
	exploreRate = 0.08
)

func main() {
	ds := corpus.Generate(corpus.DefaultConfig()).Vectorize(text.NewPipeline())
	rng := rand.New(rand.NewSource(7))

	broker := pubsub.New(pubsub.Options{Threshold: 0.18, QueueSize: 4096})

	// Register subscribers. Each gets one or two random top-level
	// interests and an empty MM profile; a few seed judgments bootstrap it
	// (a cold profile matches nothing).
	type reader struct {
		sub  *pubsub.Subscription
		user *sim.User
	}
	readers := make([]reader, numSubscribers)
	for i := range readers {
		interests := sim.RandomTopInterests(rng, ds, 1+rng.Intn(2))
		u := sim.NewUser(interests...)
		l := core.NewDefault()
		subscription, err := broker.Subscribe(fmt.Sprintf("reader%02d", i), l)
		if err != nil {
			panic(err)
		}
		readers[i] = reader{sub: subscription, user: u}
	}
	// Bootstrap: publish a seed batch and let every reader judge every
	// seed document (as if browsing an initial digest).
	seed := sim.Stream(rng, ds.Docs, 40)
	for _, doc := range seed {
		id, _ := broker.PublishVector(doc.Vec)
		for _, r := range readers {
			if err := r.sub.Feedback(id, r.user.Feedback(doc)); err != nil {
				panic(err)
			}
		}
	}

	fmt.Printf("%d subscribers bootstrapped; streaming %d pages\n\n", numSubscribers, numPublished)
	fmt.Printf("%10s %12s %12s %14s %12s\n", "published", "deliveries", "precision", "index-vectors", "index-terms")

	var delivered, relevant int64
	stream := sim.Stream(rng, ds.Docs, numPublished)
	for i, doc := range stream {
		id, _ := broker.PublishVector(doc.Vec)
		// Every reader drains its queue and judges what it received; some
		// also browse the page on their own and judge it unprompted.
		for _, r := range readers {
			got := false
			var next [1]pubsub.Delivery
			for !got {
				if n, _, _, _ := r.sub.Take(next[:]); n == 0 {
					break
				}
				d := next[0]
				if d.Doc != id {
					continue // stale item from the bootstrap batch
				}
				got = true
				delivered++
				if r.user.Relevant(doc.Cat) {
					relevant++
				}
				if err := r.sub.Feedback(d.Doc, r.user.Feedback(doc)); err != nil {
					panic(err)
				}
			}
			if !got && rng.Float64() < exploreRate {
				if err := r.sub.Feedback(id, r.user.Feedback(doc)); err != nil {
					panic(err)
				}
			}
		}
		if (i+1)%reportEvery == 0 {
			prec := 0.0
			if delivered > 0 {
				prec = float64(relevant) / float64(delivered)
			}
			ix := broker.IndexStats()
			fmt.Printf("%10d %12d %12.3f %14d %12d\n",
				i+1, delivered, prec, ix.Vectors, ix.Terms)
			delivered, relevant = 0, 0
		}
	}

	st := broker.Stats()
	fmt.Printf("\nbroker totals: %d published, %d delivered, %d feedbacks\n",
		st.Published, st.Deliveries, st.Feedbacks)
}
