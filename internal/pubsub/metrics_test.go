package pubsub

import (
	"strings"
	"testing"

	"mmprofile/internal/docstore"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/rocchio"
)

// TestDocKeyOffsetInvariant pins what tells one retained document from
// another: a ring slot answers only for the id it holds. The very first
// document (id 0) is retrievable once published and absent before — an
// empty slot is not document 0 — and an evicted or not-yet-published id
// misses instead of aliasing to the document in its slot.
func TestDocKeyOffsetInvariant(t *testing.T) {
	b := New(Options{Threshold: 0.3, Retention: 4})
	if _, ok := b.DocumentVector(0); ok {
		t.Fatal("a broker that has published nothing retains document 0")
	}
	vecs := []string{"a", "b", "c", "d", "e", "f"}
	for i, term := range vecs {
		id, _ := b.PublishVector(vec(term, 1.0))
		if id != int64(i) {
			t.Fatalf("doc id = %d, want %d", id, i)
		}
	}
	// Retention 4: ids 2..5 retained, ids 0..1 evicted.
	for i, term := range vecs {
		got, ok := b.DocumentVector(int64(i))
		if i < 2 {
			if ok {
				t.Errorf("doc %d should have been evicted", i)
			}
			continue
		}
		if !ok {
			t.Fatalf("doc %d not retained", i)
		}
		if got.Weight(term) == 0 {
			t.Errorf("doc %d returned the wrong vector: %v", i, got)
		}
	}
	if _, ok := b.DocumentVector(6); ok {
		t.Error("doc 6 is not published yet, and its slot holds doc 2")
	}
	// The retained window is exactly the newest Retention ids; the slot
	// validation behind this is pinned by the docstore package's own
	// TestDocKeyOffsetInvariant.
	retained := map[int64]bool{}
	b.docs.Range(func(rec docstore.Record) { retained[rec.ID] = true })
	if len(retained) != 4 || !retained[2] || !retained[5] {
		t.Errorf("retained ids = %v, want exactly 2..5", retained)
	}
	if got := b.m.evictions.Value(); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}

// TestDroppedCounterAgreement checks that overflowing a subscriber queue
// moves Stats().Dropped and the mm_pubsub_dropped_total metric in
// lockstep — they are the same counter, so the legacy snapshot and the
// exposition endpoints can never disagree.
func TestDroppedCounterAgreement(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Options{Threshold: 0.3, QueueSize: 2, Metrics: reg})
	if _, err := b.Subscribe("alice", trainedMM("cat")); err != nil {
		t.Fatal(err)
	}
	const published = 10
	for i := 0; i < published; i++ {
		if _, n := b.PublishVector(vec("cat", 1.0)); n != 1 {
			t.Fatalf("publish %d delivered to %d subscribers, want 1", i, n)
		}
	}
	st := b.Stats()
	if st.Dropped != published-2 {
		t.Errorf("Dropped = %d, want %d (queue of 2)", st.Dropped, published-2)
	}
	snap := reg.Snapshot()
	if got := snap["mm_pubsub_dropped_total"].(int64); got != st.Dropped {
		t.Errorf("metric dropped = %d, Stats().Dropped = %d", got, st.Dropped)
	}
	if got := snap["mm_pubsub_deliveries_total"].(int64); got != st.Deliveries {
		t.Errorf("metric deliveries = %d, Stats().Deliveries = %d", got, st.Deliveries)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mm_pubsub_dropped_total 8") {
		t.Errorf("exposition missing dropped counter:\n%s", sb.String())
	}
}

// TestAdaptationTelemetry checks the per-subscriber baseline: operations a
// learner performed before Subscribe (keyword seeding, journal replay)
// are not counted, while post-subscribe feedback is.
func TestAdaptationTelemetry(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Options{Threshold: 0.3, QueueSize: 8, Metrics: reg})
	// trainedMM performs one create before subscribing.
	if _, err := b.Subscribe("alice", trainedMM("cat")); err != nil {
		t.Fatal(err)
	}
	if got := b.m.vecCreated.Value(); got != 0 {
		t.Fatalf("pre-subscribe create leaked into telemetry: %d", got)
	}
	if got := b.m.profileVectors.Value(); got != 1 {
		t.Fatalf("profileVectors gauge = %v, want 1", got)
	}
	if got := b.m.residentPairs.Value(); got != 1 {
		t.Fatalf("residentPairs gauge = %v, want the one-term vector's 1", got)
	}

	// Relevant feedback on a dissimilar document creates a second vector.
	id, _ := b.PublishVector(vec("stock", 1.0))
	if err := b.Feedback("alice", id, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if got := b.m.vecCreated.Value(); got != 1 {
		t.Errorf("vecCreated = %d, want 1", got)
	}
	if got := b.m.profileVectors.Value(); got != 2 {
		t.Errorf("profileVectors gauge = %v, want 2", got)
	}
	if got := b.m.residentPairs.Value(); got != 2 {
		t.Errorf("residentPairs gauge = %v, want 2", got)
	}
	if s := b.m.strength.Snapshot(); s.Count == 0 {
		t.Error("strength histogram empty after feedback")
	}
	if got := b.m.feedbacks.Value(); got != 1 {
		t.Errorf("feedbacks = %d, want 1", got)
	}
	if s := b.m.feedbackLat.Snapshot(); s.Count != 1 {
		t.Errorf("feedback latency observations = %d, want 1", s.Count)
	}

	// Unsubscribe returns the gauge to zero.
	b.Unsubscribe("alice")
	if got := b.m.profileVectors.Value(); got != 0 {
		t.Errorf("profileVectors gauge after unsubscribe = %v, want 0", got)
	}
	if got := b.m.residentPairs.Value(); got != 0 {
		t.Errorf("residentPairs gauge after unsubscribe = %v, want 0", got)
	}
}

// TestResidentPairsCountStringLearners: a learner that holds its vectors as
// strings is packed on its way into the index, and its pairs count like an
// MM profile's.
func TestResidentPairsCountStringLearners(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	if _, err := b.Subscribe("alice", trainedMM("cat")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("rocco", rocchio.NewRI()); err != nil {
		t.Fatal(err)
	}
	id, _ := b.PublishVector(vec("bond", 1.0, "stock", 1.0, "yield", 1.0))
	if err := b.Feedback("rocco", id, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if got := b.m.residentPairs.Value(); got != 4 {
		t.Fatalf("residentPairs gauge = %v, want 1 + 3", got)
	}
	if _, n := b.PublishVector(vec("stock", 1.0, "yield", 1.0)); n != 1 {
		t.Errorf("the packed Rocchio profile took %d deliveries, want 1", n)
	}
	b.Unsubscribe("rocco")
	if got := b.m.residentPairs.Value(); got != 1 {
		t.Errorf("residentPairs gauge = %v after rocco left, want 1", got)
	}
}

// TestPublishLatencyHistograms checks the three-clock-read design: one
// publish produces exactly one observation in each hot-path histogram.
func TestPublishLatencyHistograms(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	b.PublishVector(vec("cat", 1.0))
	for name, h := range map[string]*metrics.Histogram{
		"publish": b.m.publishLat,
		"match":   b.m.matchLat,
		"deliver": b.m.deliverLat,
	} {
		if s := h.Snapshot(); s.Count != 1 {
			t.Errorf("%s histogram observations = %d, want 1", name, s.Count)
		}
	}
	// A zero-vector publish observes only end-to-end latency.
	b.Publish("<html></html>")
	if s := b.m.publishLat.Snapshot(); s.Count != 2 {
		t.Errorf("publish histogram observations = %d, want 2", s.Count)
	}
	if s := b.m.matchLat.Snapshot(); s.Count != 1 {
		t.Errorf("zero-vector publish must not observe match latency")
	}
}
