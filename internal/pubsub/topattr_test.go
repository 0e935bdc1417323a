package pubsub

import (
	"fmt"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/intern"
	"mmprofile/internal/metrics"
	"mmprofile/internal/store"
)

// TestAttributedPublishAddsNoAllocs pins the hot-path contract of the
// attribution layer (DESIGN.md §8): a steady-state publish — including
// deliveries, drop-oldest evictions, and per-term match attribution —
// allocates no more than a publish without any sketch did. That baseline
// is publishAllocsMax, measured at 119a9e4, the last commit that could
// switch attribution off.
func TestAttributedPublishAddsNoAllocs(t *testing.T) {
	doc := vec("cat", 1.0, "dog", 0.5)
	// QueueSize 1 with no consumer forces the drop-oldest path every
	// publish, so the drop offers are measured too.
	b := New(Options{Threshold: 0.3, Retention: 1 << 16, QueueSize: 1})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b.PublishVector(doc)
	}
	if allocs := testing.AllocsPerRun(200, func() { b.PublishVector(doc) }); allocs > publishAllocsMax {
		t.Fatalf("attributed publish allocates %v times per call, over the unattributed baseline of %v",
			allocs, publishAllocsMax)
	}
}

// TestBrokerAttributionDimensions checks the broker wires every dimension
// and that deliveries/drops/terms attribute to the right keys.
func TestBrokerAttributionDimensions(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Options{Threshold: 0.3, QueueSize: 2, Metrics: reg})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	doc := vec("cat", 1.0, "dog", 0.5)
	for i := 0; i < 10; i++ {
		b.PublishVector(doc)
	}
	want := map[string]bool{
		"subscriber_deliveries": true,
		"subscriber_drops":      true,
		"subscriber_hydrations": true,
		"term_postings_scanned": true,
	}
	for _, d := range reg.Tops(1) {
		delete(want, d.Name)
	}
	for name := range want {
		t.Errorf("dimension %s not registered", name)
	}

	snap, _ := reg.Top("subscriber_deliveries", 1)
	if len(snap.Entries) != 1 || snap.Entries[0].Key != "alice" || snap.Entries[0].Count != 10 {
		t.Fatalf("deliveries snapshot: %+v", snap)
	}
	// Queue of 2 with 10 matched publishes and no consumer: 8 drops.
	if ds, _ := reg.Top("subscriber_drops", 1); len(ds.Entries) != 1 || ds.Entries[0].Count != 8 {
		t.Fatalf("drops snapshot: %+v", ds)
	}
	// Per-term attribution resolves ids back to strings via the dict.
	ts, _ := reg.Top("term_postings_scanned", 10)
	if ts.Total == 0 {
		t.Fatal("term dimension saw no postings")
	}
	seen := map[string]bool{}
	for _, e := range ts.Entries {
		seen[e.Key] = true
	}
	if !seen["cat"] || !seen["dog"] {
		t.Fatalf("term keys should resolve to cat/dog: %+v", ts.Entries)
	}
}

// TestHydrationAttribution drives the evict/hydrate cycle and checks the
// per-subscriber hydration dimension counts rebuilds.
func TestHydrationAttribution(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := New(Options{Journal: st, Hydrator: st, MaxResident: 1, Metrics: reg})
	for i := 0; i < 3; i++ {
		if _, err := b.Subscribe(fmt.Sprintf("u%d", i), trainedMM("cat")); err != nil {
			t.Fatal(err)
		}
	}
	// With MaxResident 1, touching each profile in turn evicts the rest;
	// feedback on an evicted profile forces hydration.
	doc, _ := b.PublishVector(vec("cat", 1.0))
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			if err := b.Feedback(fmt.Sprintf("u%d", i), doc, filter.Relevant); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hyd, _ := reg.Top("subscriber_hydrations", 1); hyd.Total == 0 {
		t.Fatal("hydration dimension saw no rebuilds")
	}
}

// TestSubscriberDimensionHoldsItsBound checks the guarantee
// metrics.DimensionCapacity documents on the sketch the broker actually
// builds: every key heavier than W/DimensionCapacity is tracked. The keys
// all share FNV-1a's low three bits, the routing a hash-striped sketch would
// use, so no layout that splits the capacity by key hash can pass: a
// stripe's share of the slots is smaller than the keys it would own.
func TestSubscriberDimensionHoldsItsBound(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newBrokerMetrics(reg)
	var keys []string
	for i := 0; len(keys) < 200; i++ {
		if k := fmt.Sprintf("user-%d", i); intern.Hash(k)&7 == 0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		m.topDrops.Offer(k, 1)
	}
	snap, ok := reg.Top("subscriber_drops", 0)
	if !ok {
		t.Fatal("no subscriber_drops dimension")
	}
	eps := snap.Total / metrics.DimensionCapacity
	if eps >= 1 {
		t.Fatalf("ε = W/%d = %.3f: the unit keys are not heavier than it", metrics.DimensionCapacity, eps)
	}
	tracked := make(map[string]bool, len(snap.Entries))
	for _, e := range snap.Entries {
		tracked[e.Key] = true
	}
	for _, k := range keys {
		if !tracked[k] {
			t.Fatalf("%s weighs 1 > ε = %.3f but is not tracked (%d of %d keys are)",
				k, eps, len(snap.Entries), len(keys))
		}
	}
}
