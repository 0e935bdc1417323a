package pubsub

import (
	"errors"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/store"
	"mmprofile/internal/vsm"
)

// TestJournalIntegration runs the broker against a real store and verifies
// that a second broker restored from disk matches the first.
func TestJournalIntegration(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Options{Threshold: 0.3, Journal: st})
	sub, err := b.Subscribe("alice", trainedMM("cat", "dog"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b.PublishVector(vec("cat", 1.0, "dog", 1.0, "bird", 0.4))
	if err := sub.Feedback(id, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	b.Subscribe("bob", core.NewDefault())
	b.Unsubscribe("bob")
	st.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	profiles, events, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	learners, err := store.Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(learners) != 1 {
		t.Fatalf("restored %d learners, want 1 (bob unsubscribed)", len(learners))
	}
	restored := learners["alice"]
	probe := vec("cat", 1.0, "bird", 0.5)
	want := sub.Score(probe)
	if got := restored.Score(probe); got != want {
		t.Errorf("restored score %v, want %v", got, want)
	}
}

// failingJournal simulates a full disk.
type failingJournal struct{ failFeedback bool }

func (f failingJournal) AppendSubscribe(string, string, []byte) error {
	if !f.failFeedback {
		return errors.New("disk full")
	}
	return nil
}
func (f failingJournal) AppendUnsubscribe(string) error { return nil }
func (f failingJournal) AppendFeedback(string, vsm.Vector, filter.Feedback) error {
	if f.failFeedback {
		return errors.New("disk full")
	}
	return nil
}

func TestJournalFailuresSurface(t *testing.T) {
	b := New(Options{Journal: failingJournal{}})
	if _, err := b.Subscribe("alice", core.NewDefault()); err == nil {
		t.Error("subscribe with failing journal did not error")
	}

	b2 := New(Options{Threshold: 0.3, Journal: failingJournal{failFeedback: true}})
	sub, err := b2.Subscribe("alice", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b2.PublishVector(vec("cat", 1.0))
	before := sub.ProfileSize()
	if err := sub.Feedback(id, filter.Relevant); err == nil {
		t.Error("feedback with failing journal did not error")
	}
	if sub.ProfileSize() != before {
		t.Error("unjournaled feedback was applied")
	}
}

// syncCountingJournal records SyncJournal passthrough.
type syncCountingJournal struct {
	failingJournal
	syncs int
}

func (j *syncCountingJournal) Sync() error {
	j.syncs++
	return nil
}

// TestSyncJournal pins the broker's explicit durability barrier: it
// reaches the journal's Sync when one is available, and is a safe no-op
// for journals without one (or no journal at all).
func TestSyncJournal(t *testing.T) {
	// No journal: nothing to sync, no error.
	if err := New(Options{}).SyncJournal(); err != nil {
		t.Fatal(err)
	}
	// A journal without Sync: still a no-op.
	b := New(Options{Journal: failingJournal{failFeedback: true}})
	if err := b.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	// A syncable journal: the barrier goes through.
	j := &syncCountingJournal{failingJournal: failingJournal{failFeedback: true}}
	b2 := New(Options{Journal: j})
	if err := b2.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	if j.syncs != 1 {
		t.Fatalf("syncs = %d, want 1", j.syncs)
	}
}

// TestSyncJournalAgainstStore runs the barrier against the real store in
// relaxed (non-durable) mode: after SyncJournal returns, every journaled
// event must be fsynced.
func TestSyncJournalAgainstStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Options{Threshold: 0.3, Journal: st})
	sub, err := b.Subscribe("alice", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b.PublishVector(vec("cat", 1.0))
	if err := sub.Feedback(id, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	st.Close()
}
