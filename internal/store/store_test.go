package store

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

func vec(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// frameOf is payload framed as a record.
func frameOf(t *testing.T, payload []byte) []byte {
	t.Helper()
	return sealFrame(append(newFrame(len(payload)), payload...))
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

func TestEmptyStore(t *testing.T) {
	s := openStore(t, t.TempDir())
	profiles, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 0 || len(events) != 0 {
		t.Errorf("fresh store not empty: %d/%d", len(profiles), len(events))
	}
}

func TestAppendAndLoadEvents(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("stock", 1.0), filter.NotRelevant); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendUnsubscribe("bob"); err != nil {
		t.Fatal(err)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Type != EventSubscribe || events[0].User != "alice" || events[0].Learner != "MM" {
		t.Errorf("event 0: %+v", events[0])
	}
	if events[1].Type != EventFeedback || events[1].Fd != filter.Relevant || events[1].Vec.Weight("cat") == 0 {
		t.Errorf("event 1: %+v", events[1])
	}
	if events[2].Fd != filter.NotRelevant {
		t.Errorf("event 2: %+v", events[2])
	}
	if events[3].Type != EventUnsubscribe || events[3].User != "bob" {
		t.Errorf("event 3: %+v", events[3])
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events after reopen = %d", len(events))
	}
	// Appending continues the same log.
	if err := s2.AppendFeedback("alice", vec("dog", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	_, events, _ = s2.Load()
	if len(events) != 3 {
		t.Fatalf("events after append = %d", len(events))
	}
}

func TestCheckpointCompactsLogAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	st, err := s.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes == 0 || st.Profiles != 1 {
		t.Fatalf("checkpoint stats = %+v", st)
	}
	profiles, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 || profiles[0].User != "alice" {
		t.Fatalf("profiles = %+v", profiles)
	}
	if len(events) != 0 {
		t.Errorf("log not reset after checkpoint: %d events", len(events))
	}
	// The compacted profile absorbed the journaled feedback.
	restored, err := Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	if restored["alice"].Score(vec("cat", 1.0)) <= 1e-9 {
		t.Error("feedback lost in compaction")
	}
	// Old generation removed: the directory is exactly manifest + segment
	// + fresh WAL.
	names := dirNames(t, dir)
	want := []string{"MANIFEST", "seg-000-00000001.db", "wal-000-00000001.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("files after checkpoint = %v, want %v", names, want)
	}
	// A checkpoint with nothing dirty rewrites nothing — no generation
	// churn, no manifest write.
	st, err = s.Checkpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if st != (CheckpointStats{}) {
		t.Fatalf("idle checkpoint stats = %+v", st)
	}
	// More feedback, another checkpoint, reopen: the state survives. One
	// dirty user is below a threshold of two, so Checkpoint(2) leaves it.
	if err := s.AppendFeedback("alice", vec("dog", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Checkpoint(2); err != nil || st != (CheckpointStats{}) || fmt.Sprint(dirNames(t, dir)) != fmt.Sprint(want) {
		t.Fatalf("Checkpoint(2) with one dirty user: %+v, %v, files %v", st, err, dirNames(t, dir))
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	profiles, _, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 {
		t.Fatalf("profiles after second checkpoint = %d", len(profiles))
	}
}

func TestTornTailIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: chop bytes off the log tail.
	walPath := filepath.Join(dir, "wal-000-00000000.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// A read-only store repairs nothing; the index it builds on first use
	// stops before the torn record, exactly as its Load does.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if users, err := ro.RestoredUsers(); err != nil || len(users) != 1 || users[0] != "alice" {
		t.Errorf("read-only RestoredUsers over a torn tail = %v, %v", users, err)
	}
	if l, found, err := ro.RestoreUser("alice"); err != nil || !found || l.ProfileSize() != 0 {
		t.Errorf("read-only RestoreUser over a torn tail: found=%v err=%v", found, err)
	}
	ro.Close()
	if after, _ := os.ReadFile(walPath); len(after) != len(data)-5 {
		t.Errorf("read-only hydration changed the log: %d bytes, want %d", len(after), len(data)-5)
	}

	s2 := openStore(t, dir)
	_, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EventSubscribe {
		t.Fatalf("torn tail not discarded cleanly: %+v", events)
	}
}

func TestCorruptionMidLogIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	walPath := filepath.Join(dir, "wal-000-00000000.log")
	data, _ := os.ReadFile(walPath)
	data[12] ^= 0xFF // flip a byte inside the first record's payload
	os.WriteFile(walPath, data, 0o644)

	// Mid-log corruption is not a torn tail: Open must refuse to truncate
	// (that would destroy the valid records behind the damage) and fail.
	if _, err := Open(dir, Options{}); err == nil {
		t.Error("mid-log corruption not reported at open")
	}
	// A read-only open still works, and Load reports the corruption.
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, _, err := ro.Load(); err == nil {
		t.Error("mid-log corruption not reported by read-only Load")
	}
	if _, _, err := ro.RestoreUser("alice"); err == nil {
		t.Error("mid-log corruption not reported by read-only RestoreUser")
	}
	if _, err := ro.WALInfo(); err == nil {
		t.Error("WALInfo did not report corruption")
	}
}

// TestRecoveryEquivalence is the headline guarantee: after checkpoint +
// more events + crash, each of the three replay callers — Restore,
// RestoreUser, compaction — rebuilds learners byte-identical to the
// originals.
func TestRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	terms := []string{"a", "b", "c", "d", "e", "f"}
	randVec := func() vsm.Vector {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.5 {
				m[tm] = rng.Float64() + 0.01
			}
		}
		return vsm.FromMap(m).Normalized()
	}

	live := map[string]*core.Profile{}
	subscribe := func(user, learner string) {
		l, err := core.NewNamed(learner, nil)
		if err != nil {
			t.Fatal(err)
		}
		live[user] = l
		must(s.AppendSubscribe(user, learner, nil))
	}
	feedback := func(user string, v vsm.Vector, fd filter.Feedback) {
		live[user].Observe(v, fd)
		must(s.AppendFeedback(user, v, fd))
	}
	unsubscribe := func(user string) {
		delete(live, user)
		must(s.AppendUnsubscribe(user))
	}

	subscribe("alice", "MM")
	subscribe("bob", "MMND")
	subscribe("dave", "MM")
	subscribe("erin", "MM")
	feedback("dave", randVec(), filter.Relevant)
	feedback("erin", randVec(), filter.Relevant)
	for i := 0; i < 40; i++ {
		fd := filter.Relevant
		if i%3 == 0 {
			fd = filter.NotRelevant
		}
		feedback("alice", randVec(), fd)
		feedback("bob", randVec(), fd)
	}

	// Checkpoint (compacting the journaled events into segments), then
	// keep going: these events land in the fresh WAL.
	_, err := s.Checkpoint(1)
	must(err)
	subscribe("carol", "MMND")
	for i := 0; i < 20; i++ {
		feedback("alice", randVec(), filter.Relevant)
		feedback("carol", randVec(), filter.Relevant)
	}
	// The sequences the replay rule has a case for, over users the segment
	// holds (bob, dave, erin) and users only the WAL knows (carol, frank):
	// resubscribe under another learner, unsubscribe, unsubscribe then
	// resubscribe, each with feedback on both sides of it.
	subscribe("bob", "MM")
	unsubscribe("dave")
	unsubscribe("erin")
	subscribe("erin", "MMND")
	subscribe("frank", "MM")
	feedback("frank", randVec(), filter.Relevant)
	unsubscribe("frank")
	unsubscribe("carol")
	subscribe("carol", "MM")
	for i := 0; i < 10; i++ {
		for _, u := range []string{"bob", "erin", "carol"} {
			feedback(u, randVec(), filter.Relevant)
		}
	}
	s.Close() // "crash" after close; a real crash is the torn-tail test

	// All three replay callers must land on the live learners' bytes.
	requireLive := func(by string, got map[string]*core.Profile) {
		t.Helper()
		if len(got) != len(live) {
			t.Fatalf("%s: %d users, want %d", by, len(got), len(live))
		}
		for user, orig := range live {
			l := got[user]
			if l == nil || l.Name() != orig.Name() || !bytes.Equal(marshal(t, l), marshal(t, orig)) {
				t.Errorf("%s: user %s differs from the learner that lived through the events", by, user)
			}
		}
	}
	s2 := openStore(t, dir)
	profiles, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	requireLive("Restore", restored)
	requireHydrationEqualsRestore(t, s2, restored) // RestoreUser, user by user
	for _, gone := range []string{"dave", "frank"} {
		if _, found, err := s2.RestoreUser(gone); err != nil || found {
			t.Errorf("RestoreUser(%q): found=%v err=%v, want an unsubscribed user", gone, found, err)
		}
	}
	// Compaction, of the recovered store itself: the tail it recovered is
	// as dirty as a tail it appended.
	if st, err := s2.Checkpoint(1); err != nil || st.Bytes == 0 {
		t.Fatalf("Checkpoint = %+v, %v, want a new segment", st, err)
	}
	profiles, events, err = s2.Load()
	if err != nil || len(events) != 0 {
		t.Fatalf("after the checkpoint: %d events, %v", len(events), err)
	}
	compacted, err := Restore(profiles, nil)
	must(err)
	requireLive("compaction", compacted)

	// Feedback after an unsubscribe is a journal the broker never writes:
	// all three refuse it rather than invent a profile — for a user the
	// segment holds (erin) and for one only a WAL knows (gus, in a store of
	// its own so that erin's journal is not what is refused).
	fresh := openStore(t, t.TempDir())
	must(fresh.AppendSubscribe("gus", "MM", nil))
	for _, c := range []struct {
		st   *Store
		user string
	}{{s2, "erin"}, {fresh, "gus"}} {
		must(c.st.AppendUnsubscribe(c.user))
		must(c.st.AppendFeedback(c.user, randVec(), filter.Relevant))
		profiles, events, err := c.st.Load()
		must(err)
		if _, err := Restore(profiles, events); err == nil {
			t.Errorf("%s: Restore accepted feedback after an unsubscribe", c.user)
		}
		if _, _, err := c.st.RestoreUser(c.user); err == nil {
			t.Errorf("%s: RestoreUser accepted feedback after an unsubscribe", c.user)
		}
		if _, err := c.st.Checkpoint(1); err == nil {
			t.Errorf("%s: compaction accepted feedback after an unsubscribe", c.user)
		}
	}
}

func TestRestoreUnsubscribe(t *testing.T) {
	events := []Event{
		{Type: EventSubscribe, User: "alice", Learner: "MM"},
		{Type: EventSubscribe, User: "bob", Learner: "MM"},
		{Type: EventUnsubscribe, User: "alice"},
	}
	restored, err := Restore(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored["alice"]; ok {
		t.Error("unsubscribed user restored")
	}
	if _, ok := restored["bob"]; !ok {
		t.Error("bob missing")
	}
}

func TestRestoreErrors(t *testing.T) {
	if _, err := Restore(nil, []Event{{Type: EventFeedback, User: "ghost"}}); err == nil {
		t.Error("feedback for unknown user accepted")
	}
	if _, err := Restore([]ProfileRecord{{User: "x", Learner: "NoSuch"}}, nil); err == nil {
		t.Error("unknown learner accepted")
	}
	if _, err := Restore([]ProfileRecord{{User: "x", Learner: "MM", Data: []byte{9, 9}}}, nil); err == nil {
		t.Error("corrupt profile blob accepted")
	}
}

func TestUsers(t *testing.T) {
	profiles := []ProfileRecord{{User: "zed", Learner: "MM"}}
	events := []Event{
		{Type: EventSubscribe, User: "alice", Learner: "MM"},
		{Type: EventUnsubscribe, User: "zed"},
	}
	got := Users(profiles, events)
	if len(got) != 1 || got[0] != "alice" {
		t.Errorf("Users = %v", got)
	}
}

// TestRestoredNames: RestoredUsers names exactly the surviving users, in
// order, from the offset indexes, and each hydrates as the learner its last
// subscribe named.
func TestRestoredNames(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AppendSubscribe("zed", "MM", nil))
	must(s.AppendSubscribe("kept", "MM", nil))
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err) // zed and kept now live in segments
	}
	must(s.AppendSubscribe("alice", "MM", nil))
	must(s.AppendSubscribe("alice", "MMND", nil)) // resubscribe wins
	must(s.AppendFeedback("alice", vec("x", 1.0), filter.Relevant))
	must(s.AppendFeedback("kept", vec("x", 1.0), filter.Relevant)) // feedback only: the segment's name stands
	must(s.AppendUnsubscribe("zed"))
	must(s.AppendUnsubscribe("nobody"))

	check := func(s *Store) {
		t.Helper()
		got, err := s.RestoredUsers()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "alice" || got[1] != "kept" {
			t.Fatalf("RestoredUsers = %v, want [alice kept]", got)
		}
		for u, want := range map[string]string{"alice": "MMND", "kept": "MM"} {
			if l, found, err := s.RestoreUser(u); err != nil || !found || l.Name() != want {
				t.Errorf("RestoreUser(%q): found=%v err=%v, want a %s learner", u, found, err, want)
			}
		}
	}
	check(s)
	s.Close()
	check(openStore(t, dir)) // same answer from the index the open-time scan builds
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	check(ro) // ... and from the one a read-only store builds on first use
}

func TestClosedStoreErrors(t *testing.T) {
	s := openStore(t, t.TempDir())
	s.Close()
	if err := s.AppendFeedback("a", vec("x", 1.0), filter.Relevant); err == nil {
		t.Error("append after close accepted")
	}
	if _, err := s.Checkpoint(1); err == nil {
		t.Error("checkpoint after close accepted")
	}
	if err := s.Sync(); err == nil {
		t.Error("sync after close accepted")
	}
	// Close dropped the read handles too: hydration must refuse, not
	// quietly reopen them.
	if _, _, err := s.RestoreUser("a"); err == nil {
		t.Error("hydration after close accepted")
	}
	if _, err := s.RestoredUsers(); err == nil {
		t.Error("users after close accepted")
	}
	if err := s.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestHealth(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Health(); err != nil {
		t.Errorf("fresh store unhealthy: %v", err)
	}
	s.Close()
	if err := s.Health(); err == nil {
		t.Error("closed store reports healthy")
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Health(); err == nil {
		t.Error("read-only store reports healthy (it cannot accept appends)")
	}
}

func TestDurableAppend(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendFeedback("a", vec("x", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailReopenAppendReload is a headline regression: an Open that
// left a torn tail in place and blindly O_APPENDed behind it buried every
// later record behind garbage, so the next Load rejected the log. Open
// truncates the torn tail before appending.
func TestTornTailReopenAppendReload(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Crash mid-append: the last record is half-written.
	walPath := filepath.Join(dir, "wal-000-00000000.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen, append MORE records, and reload: everything must survive.
	s2 := openStore(t, dir)
	if err := s2.AppendFeedback("alice", vec("dog", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendFeedback("alice", vec("fish", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := openStore(t, dir)
	defer s3.Close()
	_, events, err := s3.Load()
	if err != nil {
		t.Fatalf("reload after post-recovery appends: %v", err)
	}
	// subscribe + 2 new feedbacks; the torn feedback is gone.
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Type != EventSubscribe || events[1].Vec.Weight("dog") == 0 || events[2].Vec.Weight("fish") == 0 {
		t.Fatalf("wrong events after recovery: %+v", events)
	}
}

// TestLoadConcurrentWithAppends pins the Load/append race fix: Load holds
// the journal's write lock and snapshots the committed length, so a reader
// never mistakes an in-flight append for a torn tail and silently drops
// live records. Run under -race this also proves the lock discipline.
func TestLoadConcurrentWithAppends(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	last := 0
	for alive := true; alive; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			alive = false
		default:
		}
		_, events, err := s.Load()
		if err != nil {
			t.Fatalf("concurrent Load: %v", err)
		}
		if len(events) < last {
			t.Fatalf("Load went backwards: %d after %d — records dropped as torn", len(events), last)
		}
		last = len(events)
	}
	_, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n+1 {
		t.Fatalf("final Load = %d events, want %d", len(events), n+1)
	}
}

// TestCheckpointCleansStrays pins stray collection: anything the manifest
// does not reference — stale or uncommitted generations, another lane's
// files, orphaned temp files — is removed by the next checkpoint's cleanup
// pass, regardless of generation gaps.
func TestCheckpointCleansStrays(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	ck := func() {
		t.Helper()
		if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Checkpoint(1); err != nil {
			t.Fatal(err)
		}
	}
	ck()
	ck()
	// Plant debris: a stale log, an uncommitted generation, another lane's
	// log, and an orphaned checkpoint temp file.
	for _, stray := range []string{"wal-000-00000001.log", "seg-000-00000099.db", "wal-003-00000002.log", "seg-123456.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ck()
	s.Close()

	names := dirNames(t, dir)
	want := []string{"MANIFEST", "seg-000-00000003.db", "wal-000-00000003.log"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("directory after checkpoint = %v, want %v", names, want)
	}
}

// TestRestoreResubscribeAcrossCheckpoint: a user present in a segment AND
// re-subscribed in the live WAL must come back with the log's state — the
// later subscribe supersedes the checkpointed profile, never merges.
func TestRestoreResubscribeAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("old", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("new", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openStore(t, dir)
	profiles, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	al := restored["alice"]
	if al == nil {
		t.Fatal("alice missing")
	}
	if al.Score(vec("old", 1.0)) > 1e-9 {
		t.Error("stale checkpointed state leaked into the resubscribed profile")
	}
	if al.Score(vec("new", 1.0)) <= 1e-9 {
		t.Error("post-resubscribe feedback lost")
	}
	// Single-user hydration agrees with the full restore.
	l, found, err := s2.RestoreUser("alice")
	if err != nil || !found {
		t.Fatalf("RestoreUser: found=%v err=%v", found, err)
	}
	if l.Score(vec("new", 1.0)) <= 1e-9 || l.Score(vec("old", 1.0)) > 1e-9 {
		t.Error("RestoreUser state disagrees with Restore")
	}
}

// TestRestoreUserHydration: single-user hydration from segment + WAL
// is bit-identical to the learner a full Restore produces; unknown and
// unsubscribed users report found=false.
func TestRestoreUserHydration(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	rng := rand.New(rand.NewSource(11))
	users := []string{"alice", "bob", "carol"}
	for _, u := range users {
		if err := s.AppendSubscribe(u, "MM", nil); err != nil {
			t.Fatal(err)
		}
	}
	spray := func(n int) {
		for i := 0; i < n; i++ {
			u := users[rng.Intn(len(users))]
			fd := filter.Relevant
			if rng.Float64() < 0.3 {
				fd = filter.NotRelevant
			}
			if err := s.AppendFeedback(u, vec(fmt.Sprintf("t%03d", rng.Intn(40)), 1.0), fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	spray(30)
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err) // half the history compacts into segments
	}
	spray(30)
	if err := s.AppendUnsubscribe("carol"); err != nil {
		t.Fatal(err)
	}

	profiles, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	full, err := Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		l, found, err := s.RestoreUser(u)
		if err != nil || !found {
			t.Fatalf("RestoreUser(%s): found=%v err=%v", u, found, err)
		}
		want, err := full[u].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("RestoreUser(%s) state differs from full restore", u)
		}
	}
	if _, found, err := s.RestoreUser("carol"); err != nil || found {
		t.Errorf("unsubscribed user hydrated: found=%v err=%v", found, err)
	}
	if _, found, err := s.RestoreUser("ghost"); err != nil || found {
		t.Errorf("unknown user hydrated: found=%v err=%v", found, err)
	}
}

// slowSyncFS delays every file fsync, forcing concurrent appenders to
// pile up behind the group-commit leader so coalescing is deterministic.
type slowSyncFS struct {
	faultfs.FS
	delay time.Duration
}

func (f slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	fl, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{fl, f.delay}, nil
}

type slowSyncFile struct {
	faultfs.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitCoalesces proves durable mode batches fsyncs: many
// concurrent appenders share far fewer fsyncs than appends, yet every
// append is individually acknowledged durable. Its fsync is a sleep, which
// parks the leader and frees its P, so appenders write during it and share
// the next one even when the leader does not yield first: it does not see
// what a real fsync, a syscall that keeps the P, does to a batch
// (TestReadyAppendersShareOneFsync does).
func TestGroupCommitCoalesces(t *testing.T) {
	const workers, perW = 16, 20
	reg := metrics.NewRegistry()
	s, err := Open(t.TempDir(), Options{
		Durable: true,
		Metrics: reg,
		FS:      slowSyncFS{faultfs.OS(), 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < perW; i++ {
				if err := s.AppendFeedback(user, vec("cat", 1.0), filter.Relevant); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	appends := snap["mm_store_appends_total"].(int64)
	fsyncs := snap["mm_store_fsyncs_total"].(int64)
	batched := snap["mm_store_group_commit_records_total"].(int64)
	if appends != int64(workers*perW) {
		t.Fatalf("appends = %d, want %d", appends, workers*perW)
	}
	if batched != appends {
		t.Fatalf("group-commit records = %d, want %d (every durable append must ride a batch)", batched, appends)
	}
	if fsyncs > appends/2 {
		t.Fatalf("fsyncs = %d for %d appends: group commit is not coalescing", fsyncs, appends)
	}
	t.Logf("group commit: %d appends / %d fsyncs = %.1f records per fsync",
		appends, fsyncs, float64(appends)/float64(fsyncs))
}

// TestReadyAppendersShareOneFsync releases eight durable appenders at once
// on one P and counts the fsyncs they cost. The simulated fsync, like a
// real one, keeps the leader's P, so a leader that fsyncs as soon as it is
// elected covers only its own record, and each appender in turn leads a
// pass of its own: eight fsyncs. A leader that yields before it reads the
// batch end lets every ready appender write first and covers them all.
func TestReadyAppendersShareOneFsync(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const appenders = 8
	sim := faultfs.NewSim()
	s, err := Open("/state", Options{Durable: true, FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var syncs atomic.Int64
	sim.SetHook(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpSync {
			syncs.Add(1)
		}
		return faultfs.Fault{}
	})

	start := make(chan struct{})
	errs := make(chan error, appenders)
	for w := 0; w < appenders; w++ {
		go func(w int) {
			<-start
			errs <- s.AppendFeedback(fmt.Sprintf("u%d", w), vec("cat", 1.0), filter.Relevant)
		}(w)
	}
	close(start)
	for w := 0; w < appenders; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := syncs.Load(); n > 2 {
		t.Fatalf("%d ready appenders cost %d fsyncs, want at most 2: the leader fsyncs before they can join its batch", appenders, n)
	}
}

// TestManifestBytesUnchanged pins what the store writes: MANIFEST version 2
// with a lane count of 1, byte for byte as releases since the WAL lost its
// lanes wrote it, and the journal's names wal-000-<gen>.log and
// seg-000-<gen>.db, so every directory they wrote opens as it did.
func TestManifestBytesUnchanged(t *testing.T) {
	for _, c := range []struct {
		epoch, gen uint64
		idx        int64
		want       string
	}{
		{1, 0, noIndex, "4d4d4c4e0201010000"},
		{7, 3, 1234, "4d4d4c4e02070103d309"},
		{1 << 40, 1 << 33, 1 << 35, "4d4d4c4e02808080808020018080808020818080808001"},
	} {
		if got := hex.EncodeToString(appendManifest(nil, c.epoch, c.gen, c.idx)); got != c.want {
			t.Errorf("appendManifest(nil, %d, %d, %d) = %s, want %s", c.epoch, c.gen, c.idx, got, c.want)
		}
	}
	dir := t.TempDir()
	s := openStore(t, dir)
	if got, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || hex.EncodeToString(got) != "09000000e10d0b0e4d4d4c4e0201010000" {
		t.Errorf("a fresh store's MANIFEST = %x, %v", got, err)
	}
	if err := s.AppendSubscribe("u", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	entries, err := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := "[MANIFEST seg-000-00000001.db wal-000-00000001.log]"; err != nil || fmt.Sprint(names) != want {
		t.Errorf("after one checkpoint the directory holds %v (%v), want %s", names, err, want)
	}
}
