package pubsub

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/store"
	"mmprofile/internal/trace"
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

// failingJournal simulates a full disk for the appends it is told to fail,
// and counts the unsubscribe records it takes.
type failingJournal struct {
	failSubscribe, failFeedback, failUnsubscribe bool
	unsubscribes                                 int
}

func (f *failingJournal) AppendSubscribe(string, string, []byte) error {
	if f.failSubscribe {
		return errors.New("disk full")
	}
	return nil
}
func (f *failingJournal) AppendUnsubscribe(string) error {
	if f.failUnsubscribe {
		return errors.New("disk full")
	}
	f.unsubscribes++
	return nil
}
func (f *failingJournal) AppendFeedbackTraced(string, vsm.Vector, filter.Feedback, *trace.Span) error {
	if f.failFeedback {
		return errors.New("disk full")
	}
	return nil
}

// TestJournalFailuresSurface: a subscribe whose record fails errors and
// leaves nothing behind — the id free for a retry, no gauge moved, nothing
// for an Unsubscribe to journal — and an unsubscribe or a judgment whose
// record fails errors without touching the subscriber.
func TestJournalFailuresSurface(t *testing.T) {
	j := &failingJournal{}
	b := New(Options{Threshold: 0.3, Journal: j})
	if _, err := b.Subscribe("bob", trainedMM("fish")); err != nil {
		t.Fatal(err)
	}
	gauges := func() [3]any {
		snap := b.Metrics().Snapshot()
		return [3]any{snap["mm_pubsub_subscribers"], snap["mm_profile_vectors"], snap["mm_pubsub_resident_profiles"]}
	}
	before := gauges()
	j.failSubscribe = true
	if _, err := b.Subscribe("alice", trainedMM("cat")); err == nil {
		t.Error("subscribe with failing journal did not error")
	}
	if got := gauges(); got != before {
		t.Errorf("a failed subscribe moved subscribers, vectors, resident profiles from %v to %v", before, got)
	}
	if _, ok := b.Subscription("alice"); ok {
		t.Error("a failed subscribe left its id registered")
	}
	if _, n := b.PublishVector(vec("cat", 1.0)); n != 0 {
		t.Errorf("a failed subscribe was delivered to (%d)", n)
	}
	b.Unsubscribe("alice")
	if j.unsubscribes != 0 {
		t.Errorf("unsubscribing the failed id journaled %d record(s)", j.unsubscribes)
	}
	j.failSubscribe = false
	if _, err := b.Subscribe("alice", trainedMM("cat")); err != nil {
		t.Errorf("retry with a working journal: %v", err)
	}
	j.failUnsubscribe = true
	if err := b.Unsubscribe("alice"); err == nil {
		t.Error("unsubscribe with failing journal did not error")
	}
	if _, n := b.PublishVector(vec("cat", 1.0)); n != 1 {
		t.Errorf("an unjournaled unsubscribe was applied: %d deliveries", n)
	}

	b2 := New(Options{Threshold: 0.3, Journal: &failingJournal{failFeedback: true}})
	sub, err := b2.Subscribe("alice", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	id, _ := b2.PublishVector(vec("cat", 1.0))
	size := sub.ProfileSize()
	if err := sub.Feedback(id, filter.Relevant); err == nil {
		t.Error("feedback with failing journal did not error")
	}
	if sub.ProfileSize() != size {
		t.Error("unjournaled feedback was applied")
	}
}

// blockingUnsubscribe is a store whose unsubscribe appends wait, once they
// have begun, until release is closed.
type blockingUnsubscribe struct {
	*store.Store
	entered, release chan struct{}
}

func (j blockingUnsubscribe) AppendUnsubscribe(user string) error {
	close(j.entered)
	<-j.release
	return j.Store.AppendUnsubscribe(user)
}

// TestResubscribeRacingUnsubscribe: a subscribe of an id whose unsubscribe
// is still appending its record either fails as a duplicate or lands
// after that record — never acknowledged, live, and then dropped by the
// replay of an unsubscribe journaled behind it.
func TestResubscribeRacingUnsubscribe(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	j := blockingUnsubscribe{Store: st, entered: make(chan struct{}), release: make(chan struct{})}
	b := New(Options{Threshold: 0.3, Journal: j})
	if _, err := b.Subscribe("u", trainedMM("cat")); err != nil {
		t.Fatal(err)
	}
	unsubscribed := make(chan struct{})
	go func() { b.Unsubscribe("u"); close(unsubscribed) }()
	<-j.entered
	resubscribed := make(chan error, 1)
	go func() {
		_, err := b.Subscribe("u", trainedMM("dog"))
		resubscribed <- err
	}()
	var resubErr error
	select { // a subscribe that waits for the unsubscribe is fine too
	case resubErr = <-resubscribed:
	case <-time.After(200 * time.Millisecond):
		close(j.release)
		resubErr = <-resubscribed
	}
	select {
	case <-j.release:
	default:
		close(j.release)
	}
	<-unsubscribed

	var acked []string
	switch {
	case resubErr == nil:
		acked = []string{"u"}
		if _, n := b.PublishVector(vec("dog", 1.0)); n != 1 {
			t.Errorf("the acknowledged re-subscribe is not live: %d deliveries", n)
		}
	case !strings.Contains(resubErr.Error(), "duplicate"):
		t.Fatalf("re-subscribe: %v, want success or a duplicate", resubErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	restored, err := st.RestoredUsers()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(restored, acked) {
		t.Errorf("restored %v; acknowledged %v", restored, acked)
	}
}

// gatedSyncFS holds the first file fsync after armed is set until release
// is closed, announcing it on held.
type gatedSyncFS struct {
	faultfs.FS
	armed         *atomic.Bool
	held, release chan struct{}
}

func (f gatedSyncFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return gatedSyncFile{fl, f}, nil
}

type gatedSyncFile struct {
	faultfs.File
	fs gatedSyncFS
}

func (f gatedSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.held)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestStalledFsyncBlocksNoPublish: while one durable subscribe waits for
// its WAL fsync, a publish still completes and delivers, and three more
// durable subscribes append their records; the four acknowledgements then
// take two fsyncs, the held one and one group commit for the other three.
func TestStalledFsyncBlocksNoPublish(t *testing.T) {
	fsys := gatedSyncFS{FS: faultfs.OS(), armed: new(atomic.Bool), held: make(chan struct{}), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(fsys.release) }) }
	defer release()
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Durable: true, FS: fsys, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := func(name string) int64 { v, _ := reg.Snapshot()[name].(int64); return v }
	b := New(Options{Threshold: 0.3, Journal: st})
	reader, err := b.Subscribe("reader", trainedMM("cat"))
	if err != nil {
		t.Fatal(err)
	}
	fsyncs, appends := count("mm_store_fsyncs_total"), count("mm_store_appends_total")

	fsys.armed.Store(true)
	errs := make(chan error, 4)
	subscribe := func(id string) {
		_, err := b.Subscribe(id, trainedMM("dog"))
		errs <- err
	}
	go subscribe("held")
	<-fsys.held
	published := make(chan int, 1)
	go func() { _, n := b.PublishVector(vec("cat", 1.0)); published <- n }()
	select {
	case n := <-published:
		if _, ok := recv(reader, false); n != 1 || !ok {
			t.Errorf("publish beside the held fsync delivered %d; the reader got it: %v", n, ok)
		}
	case <-time.After(2 * time.Second):
		t.Error("a publish is blocked behind a subscribe's fsync")
	}
	for i := 1; i <= 3; i++ {
		go subscribe(fmt.Sprintf("s%d", i))
	}
	for deadline := time.Now().Add(2 * time.Second); count("mm_store_appends_total") < appends+4; {
		if time.Now().After(deadline) {
			t.Errorf("%d of 3 subscribes appended beside the held fsync", count("mm_store_appends_total")-appends-1)
			break
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := count("mm_store_fsyncs_total") - fsyncs; n != 2 {
		t.Errorf("four durable subscribes took %d fsyncs, want 2", n)
	}
}
