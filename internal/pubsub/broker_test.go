package pubsub

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/rocchio"
	"mmprofile/internal/vsm"
)

func vec(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

// trainedMM returns an MM learner already interested in the given concept
// terms.
func trainedMM(terms ...string) *core.Profile {
	l := core.NewDefault()
	pairs := make([]any, 0, 2*len(terms))
	for _, t := range terms {
		pairs = append(pairs, t, 1.0)
	}
	l.Observe(vec(pairs...), filter.Relevant)
	return l
}

func TestSubscribePublishDeliver(t *testing.T) {
	b := New(Options{Threshold: 0.3, QueueSize: 8})
	sub, err := b.Subscribe("alice", trainedMM("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Subscribe("bob", trainedMM("stock", "bond"))
	if err != nil {
		t.Fatal(err)
	}

	id, n := b.PublishVector(vec("cat", 1.0, "dog", 1.0))
	if n != 1 {
		t.Fatalf("delivered to %d subscribers, want 1", n)
	}
	d, ok := recv(sub, false)
	if !ok {
		t.Fatal("no delivery for alice")
	}
	if d.Doc != id {
		t.Errorf("delivered doc %d, want %d", d.Doc, id)
	}
	if d.Score < 0.3 {
		t.Errorf("delivered score %v below threshold", d.Score)
	}
}

func TestDuplicateSubscriber(t *testing.T) {
	b := New(Options{})
	if _, err := b.Subscribe("alice", core.NewDefault()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("alice", core.NewDefault()); err == nil {
		t.Fatal("duplicate subscribe did not error")
	}
}

func TestPublishPipelineAndStats(t *testing.T) {
	b := New(Options{Threshold: 0.05})
	page := `<html><head><title>x</title></head><body>
	<p>felines and kittens, cats everywhere, cat toys</p></body></html>`
	id, _ := b.Publish(page)
	v, ok := b.DocumentVector(id)
	if !ok {
		t.Fatal("published document not retained")
	}
	if v.IsZero() {
		t.Fatal("published document vectorized to zero")
	}
	if got := b.Stats().Published; got != 1 {
		t.Errorf("Published = %d", got)
	}
}

func TestFeedbackAdaptsProfileAndIndex(t *testing.T) {
	b := New(Options{Threshold: 0.35, QueueSize: 8})
	sub, err := b.Subscribe("alice", trainedMM("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	// A stock document does not reach alice at first.
	id1, n := b.PublishVector(vec("stock", 1.0, "bond", 1.0))
	if n != 0 {
		t.Fatalf("irrelevant doc delivered %d times", n)
	}
	// Alice tells the system she actually liked it (she found it elsewhere
	// and judges the retained doc).
	if err := sub.Feedback(id1, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	// Now similar documents must be delivered: the profile grew a vector
	// and the index was refreshed.
	_, n = b.PublishVector(vec("stock", 1.0, "bond", 1.0, "market", 0.2))
	if n != 1 {
		t.Fatalf("adapted profile did not match: delivered %d", n)
	}
	if sub.ProfileSize() < 2 {
		t.Errorf("profile size = %d, want ≥ 2", sub.ProfileSize())
	}
}

func TestNegativeFeedbackStopsDeliveries(t *testing.T) {
	b := New(Options{Threshold: 0.35, QueueSize: 64})
	sub, err := b.Subscribe("alice", trainedMM("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	catDoc := vec("cat", 1.0, "dog", 1.0)
	// Sustained negative feedback on cat documents must eventually delete
	// the cat cluster (strength decay) and stop deliveries.
	for i := 0; i < 20; i++ {
		id, n := b.PublishVector(catDoc)
		if n == 0 {
			// Profile has forgotten cats.
			if sub.ProfileSize() != 0 {
				t.Errorf("no delivery but profile still has %d vectors", sub.ProfileSize())
			}
			return
		}
		if err := sub.Feedback(id, filter.NotRelevant); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("cat cluster survived 20 negative judgments")
}

func TestFeedbackErrors(t *testing.T) {
	b := New(Options{})
	if err := b.Feedback("ghost", 0, filter.Relevant); err == nil {
		t.Error("feedback from unknown user did not error")
	}
	sub, _ := b.Subscribe("alice", core.NewDefault())
	if err := sub.Feedback(999, filter.Relevant); err == nil {
		t.Error("feedback on unknown document did not error")
	}
}

func TestRetentionEviction(t *testing.T) {
	b := New(Options{Retention: 3})
	id0, _ := b.PublishVector(vec("a", 1.0))
	for i := 0; i < 3; i++ {
		b.PublishVector(vec("b", 1.0))
	}
	if _, ok := b.DocumentVector(id0); ok {
		t.Error("document survived beyond retention window")
	}
	sub, _ := b.Subscribe("alice", core.NewDefault())
	if err := sub.Feedback(id0, filter.Relevant); err == nil {
		t.Error("feedback on evicted document did not error")
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	b := New(Options{Threshold: 0.1, QueueSize: 2})
	sub, _ := b.Subscribe("alice", trainedMM("cat"))
	var ids []int64
	for i := 0; i < 5; i++ {
		id, _ := b.PublishVector(vec("cat", 1.0))
		ids = append(ids, id)
	}
	if got := b.Stats().Dropped; got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	// The two newest deliveries remain.
	d1, _ := recv(sub, true)
	d2, _ := recv(sub, true)
	if d1.Doc != ids[3] || d2.Doc != ids[4] {
		t.Errorf("queue kept docs %d,%d; want %d,%d", d1.Doc, d2.Doc, ids[3], ids[4])
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	b := New(Options{})
	sub, _ := b.Subscribe("alice", trainedMM("cat"))
	b.Unsubscribe("alice")
	if _, open := recv(sub, true); open {
		t.Error("stream not closed on unsubscribe")
	}
	// Publishing after unsubscribe must not deliver or panic.
	if _, n := b.PublishVector(vec("cat", 1.0)); n != 0 {
		t.Errorf("delivered to unsubscribed user: %d", n)
	}
	b.Unsubscribe("alice") // idempotent
}

func TestSubscribeKeywords(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	sub, err := b.SubscribeKeywords("alice", []string{"Computers", "programming languages"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ProfileSize() != 1 {
		t.Fatalf("keyword profile size = %d", sub.ProfileSize())
	}
	// A page about the keywords must be delivered; stems must line up with
	// the pipeline's output.
	page := "<html><body>computers and programming language tutorials</body></html>"
	_, n := b.Publish(page)
	if n != 1 {
		t.Errorf("keyword-seeded profile missed a matching page (delivered %d)", n)
	}
}

// TestSubscribeRefusesLearnerWithoutVectors: the index is the only match
// path, so a learner that exposes no vectors is refused — and the refusal
// leaves the registry, the index and the journal as they were (the journal
// here fails every subscribe it is shown, so an error that names
// VectorSource instead means it was never reached).
func TestSubscribeRefusesLearnerWithoutVectors(t *testing.T) {
	b := New(Options{Threshold: 0.3, Journal: failingJournal{}})
	for name, subscribe := range map[string]func(filter.Learner) error{
		"Subscribe":         func(l filter.Learner) error { _, err := b.Subscribe("alice", l); return err },
		"SubscribeRestored": func(l filter.Learner) error { _, err := b.SubscribeRestored("alice", l); return err },
	} {
		err := subscribe(opaque{trainedMM("cat", "dog")})
		if err == nil || !strings.Contains(err.Error(), "VectorSource") {
			t.Errorf("%s(opaque) = %v, want an error naming filter.VectorSource", name, err)
		}
	}
	if _, ok := b.Subscription("alice"); ok || b.Stats().Subscribers != 0 {
		t.Error("refused learner was registered")
	}
	if st := b.IndexStats(); st.Users != 0 || st.Vectors != 0 {
		t.Errorf("refused learner reached the index: %+v", st)
	}
	if _, n := b.PublishVector(vec("cat", 1.0, "dog", 1.0)); n != 0 {
		t.Errorf("refused learner took %d deliveries", n)
	}
}

// opaque wraps a learner, stripping every optional capability — its
// VectorSource implementation and its codec included.
type opaque struct{ l filter.Learner }

func (o opaque) Name() string                             { return o.l.Name() }
func (o opaque) Observe(v vsm.Vector, fd filter.Feedback) { o.l.Observe(v, fd) }
func (o opaque) Score(v vsm.Vector) float64               { return o.l.Score(v) }
func (o opaque) ProfileSize() int                         { return o.l.ProfileSize() }
func (o opaque) Reset()                                   { o.l.Reset() }

// unserializable is opaque with its vectors back: indexable, not exportable.
type unserializable struct{ opaque }

func (u unserializable) ProfileVectors() []vsm.Vector {
	return u.l.(filter.VectorSource).ProfileVectors()
}

func TestRocchioSubscriberIndexed(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	r := rocchio.NewRI()
	r.Observe(vec("cat", 1.0, "dog", 1.0), filter.Relevant)
	if _, err := b.Subscribe("alice", r); err != nil {
		t.Fatal(err)
	}
	if st := b.IndexStats(); st.Vectors != 1 {
		t.Errorf("index vectors = %d, want 1", st.Vectors)
	}
	if _, n := b.PublishVector(vec("cat", 1.0)); n != 1 {
		t.Errorf("Rocchio subscriber missed delivery")
	}
}

func TestContentRetention(t *testing.T) {
	b := New(Options{RetainContent: true, Retention: 2})
	page := "<html><body>felines</body></html>"
	id, _ := b.Publish(page)
	got, ok := b.DocumentContent(id)
	if !ok || got != page {
		t.Fatalf("DocumentContent = %q, %v", got, ok)
	}
	// Eviction clears content with the record.
	b.Publish("<html><body>a</body></html>")
	b.Publish("<html><body>b</body></html>")
	if _, ok := b.DocumentContent(id); ok {
		t.Error("evicted content still served")
	}
	// Without the option content is not kept.
	b2 := New(Options{})
	id2, _ := b2.Publish(page)
	if _, ok := b2.DocumentContent(id2); ok {
		t.Error("content retained without RetainContent")
	}
}

func TestExportProfile(t *testing.T) {
	b := New(Options{})
	if _, err := b.ExportProfile("ghost"); err == nil {
		t.Error("export of unknown user accepted")
	}
	sub, _ := b.Subscribe("alice", trainedMM("cat", "dog"))
	snap, err := b.ExportProfile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Learner != "MM" || len(snap.Data) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The exported blob reconstructs an identical profile.
	restored := core.NewDefault()
	if err := restored.UnmarshalBinary(snap.Data); err != nil {
		t.Fatal(err)
	}
	probe := vec("cat", 1.0)
	if restored.Score(probe) != sub.Score(probe) {
		t.Error("restored profile scores differently")
	}
	// Non-serializable learners refuse.
	if _, err := b.Subscribe("eve", unserializable{opaque{core.NewDefault()}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExportProfile("eve"); err == nil {
		t.Error("non-serializable export accepted")
	}
}

func TestConcurrentPublishFeedback(t *testing.T) {
	b := New(Options{Threshold: 0.2, QueueSize: 1024})
	var subs []*Subscription
	for i := 0; i < 8; i++ {
		s, err := b.Subscribe(fmt.Sprintf("user%d", i), trainedMM("cat", fmt.Sprintf("topic%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.PublishVector(vec("cat", 1.0, fmt.Sprintf("topic%d", (g+i)%8), 0.5))
			}
		}(g)
	}
	for _, s := range subs {
		wg.Add(1)
		go func(s *Subscription) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if d, ok := recv(s, false); ok {
					fd := filter.Relevant
					if i%3 == 0 {
						fd = filter.NotRelevant
					}
					_ = s.Feedback(d.Doc, fd) // evicted docs may error; fine
				}
			}
		}(s)
	}
	wg.Wait()
	st := b.Stats()
	if st.Published != 400 {
		t.Errorf("Published = %d, want 400", st.Published)
	}
	if st.Deliveries == 0 {
		t.Error("no deliveries under concurrency")
	}
}
