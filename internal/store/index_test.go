package store

// Tests for the offset index and the pread read path (DESIGN.md §14):
// the two bounds it exists for — a cold profile costs index entries, not
// heap; a hydration reads its own records, not the WAL — and the fault
// cases the new path adds.

import (
	"bytes"
	"encoding"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
)

func marshal(t testing.TB, l filter.Learner) []byte {
	t.Helper()
	data, err := l.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireHydrationEqualsRestore holds the lazy read path to the eager one
// on the same open store: RestoredUsers lists exactly the users a full
// Load+Restore yields, and each hydrates through RestoreUser to the same
// learner type and bytes.
func requireHydrationEqualsRestore(t *testing.T, s *Store, learners map[string]filter.Learner) {
	t.Helper()
	users, err := s.RestoredUsers()
	if err != nil {
		t.Fatalf("RestoredUsers: %v", err)
	}
	if len(users) != len(learners) || !sort.StringsAreSorted(users) {
		t.Fatalf("RestoredUsers = %v, full restore has %d users", users, len(learners))
	}
	for _, u := range users {
		want := learners[u]
		if want == nil {
			t.Fatalf("RestoredUsers lists %q, the full restore does not have it", u)
		}
		l, found, err := s.RestoreUser(u)
		if err != nil || !found || l.Name() != want.Name() {
			t.Fatalf("RestoreUser(%q): found=%v err=%v, want a %s learner", u, found, err, want.Name())
		}
		if !bytes.Equal(marshal(t, l), marshal(t, want)) {
			t.Fatalf("RestoreUser(%q) differs from the full restore", u)
		}
	}
	for _, u := range []string{"u", "z", "q", "alice", "nobody"} {
		if _, found, err := s.RestoreUser(u); err != nil || found != (learners[u] != nil) {
			t.Fatalf("RestoreUser(%q): found=%v err=%v, full restore has it: %v", u, found, err, learners[u] != nil)
		}
	}
}

// bigProfile is a trained MM profile of roughly 10 KB: several
// 100-term vectors, the size the paper's setting implies per user.
func bigProfile(t testing.TB) []byte {
	t.Helper()
	blob := trainedProfile(t, 6)
	if len(blob) < 8<<10 {
		t.Fatalf("profile blob is %d bytes, want about 10 KB", len(blob))
	}
	return blob
}

// trainedProfile is the serialized MM profile of a user who judged
// vectors distinct 100-term documents relevant: about 1.7 KB a vector.
func trainedProfile(tb testing.TB, vectors int) []byte {
	tb.Helper()
	p := core.NewDefault()
	for v := 0; v < vectors; v++ {
		pairs := make([]any, 0, 200)
		for i := 0; i < 100; i++ {
			pairs = append(pairs, fmt.Sprintf("v%dterm%03d", v, i), 1.0+float64(i%7))
		}
		p.Observe(vec(pairs...), filter.Relevant)
	}
	return marshal(tb, p)
}

func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestColdProfilesCostNoHeap is the memory bound: a store holding 2 000
// profiles of ~10 KB in its segments retains an offset index — well under
// 300 bytes a user, against the 10 KB a payload cache kept — and neither
// hydrating a tenth of them nor a checkpoint changes that.
func TestColdProfilesCostNoHeap(t *testing.T) {
	const users, perUser = 2000, 300
	dir := t.TempDir()
	blob := bigProfile(t)
	name := func(i int) string { return fmt.Sprintf("user-%05d", i) }
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := s.AppendSubscribe(name(i), "MM", blob); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, blob = nil, nil

	base := heapAlloc()
	check := func(when string) {
		t.Helper()
		got := (heapAlloc() - base) / users
		t.Logf("%s: %d B per cold user", when, got)
		if got > perUser {
			t.Errorf("%s: the open store retains %d B per cold user, want at most %d", when, got, perUser)
		}
	}
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if names, err := s.RestoredUsers(); err != nil || len(names) != users {
		t.Fatalf("RestoredUsers: %d users, %v", len(names), err)
	}
	check("after a lazy boot")

	for i := 0; i < 200; i++ {
		if l, found, err := s.RestoreUser(name(i * 7)); err != nil || !found || l.ProfileSize() == 0 {
			t.Fatalf("RestoreUser(%s): found=%v err=%v", name(i*7), found, err)
		}
	}
	check("after 200 hydrations")

	for i := 0; i < users; i += 50 { // dirty one user in 50, then compact
		if err := s.AppendFeedback(name(i), vec("cat", 1.0), filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Checkpoint(1)
	if err != nil || st.Profiles != users || st.Carried != users-users/50 {
		t.Fatalf("checkpoint: %+v, %v", st, err)
	}
	check("after a checkpoint")
	if l, found, err := s.RestoreUser(name(50)); err != nil || !found || l.Score(vec("cat", 1.0)) <= 0 {
		t.Fatalf("a compacted profile lost its feedback: found=%v err=%v", found, err)
	}
}

// TestRestoreUserReadsOnlyOwnRecords is the I/O bound: hydrating a user
// with three records out of a WAL holding 5 000 of other users'
// reads those three frames and nothing else — from the index the appends
// built, and from the one a reopen's scan rebuilds.
func TestRestoreUserReadsOnlyOwnRecords(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	s, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	first := s
	var own int64
	mine := func(err error, before int64) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		own += s.walLen - before
	}
	noise := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			u := fmt.Sprintf("other-%02d", i%50)
			if err := s.AppendFeedback(u, vec(fmt.Sprintf("t%04d", i), 1.0, "common", 0.5), filter.Relevant); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		if err := s.AppendSubscribe(fmt.Sprintf("other-%02d", i), "MM", nil); err != nil {
			t.Fatal(err)
		}
	}
	at := s.walLen
	mine(s.AppendSubscribe("target", "MM", nil), at)
	noise(2500)
	at = s.walLen
	mine(s.AppendFeedback("target", vec("cat", 1.0), filter.Relevant), at)
	noise(2500)
	at = s.walLen
	mine(s.AppendFeedback("target", vec("dog", 1.0), filter.NotRelevant), at)

	readBytes := func() int64 { return reg.Snapshot()["mm_store_restore_read_bytes_total"].(int64) }
	hydrate := func(s *Store, when string) {
		t.Helper()
		before := readBytes()
		l, found, err := s.RestoreUser("target")
		if err != nil || !found || l.Score(vec("cat", 1.0)) <= 0 {
			t.Fatalf("%s: RestoreUser: found=%v err=%v", when, found, err)
		}
		if got := readBytes() - before; got <= 0 || got > own {
			t.Errorf("%s: hydration read %d bytes; the user's three frames are %d of the WAL's %d", when, got, own, first.walLen)
		}
	}
	hydrate(s, "live index")
	s.Close()
	if s, err = Open(dir, Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hydrate(s, "index rebuilt at open")
}

// TestRestoreUserDetectsBitFlip damages the bytes under an indexed offset
// while the store is open — after every scan that could have caught it —
// one byte at a time across the user's whole segment frame and one of its
// WAL frames, header and payload alike. Hydration must answer each with
// an error, never with a profile, and recover once the byte is restored.
func TestRestoreUserDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, u := range []string{"alice", "bob"} {
		if err := s.AppendSubscribe(u, "MM", nil); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendFeedback(u, vec("cat", 1.0, u, 0.5), filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("dog", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("bob", vec("dog", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	want, found, err := s.RestoreUser("bob")
	if err != nil || !found {
		t.Fatalf("RestoreUser: found=%v err=%v", found, err)
	}
	seg, wal := s.segIdx["bob"], s.walIdx["bob"][0]
	for _, c := range []struct {
		path   string
		off, n int64
	}{
		{filepath.Join(dir, "seg-000-00000001.db"), seg.off, 8 + int64(seg.n)},
		{filepath.Join(dir, "wal-000-00000001.log"), wal.off, 8 + int64(wal.n)},
	} {
		f, err := os.OpenFile(c.path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		for off := c.off; off < c.off+c.n; off++ {
			if _, err := f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x10
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
			if l, found, err := s.RestoreUser("bob"); err == nil {
				t.Fatalf("%s: flipped byte at %d went unnoticed (found=%v, learner=%v)", filepath.Base(c.path), off, found, l != nil)
			}
			if _, found, err := s.RestoreUser("alice"); err != nil || !found {
				t.Fatalf("%s: damage to bob's record at %d broke alice: found=%v err=%v", filepath.Base(c.path), off, found, err)
			}
			b[0] ^= 0x10
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, found, err := s.RestoreUser("bob")
	if err != nil || !found || !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Fatalf("hydration did not recover with the bytes: found=%v err=%v", found, err)
	}
}

// TestHydrationConcurrentWithCheckpoint runs hydrations against appends
// and back-to-back checkpoint flips. Each hydration must equal a reference
// learner fed the same judgments: a read of a removed generation — a stale
// segment offset, or a WAL index that outlived its file — would return an
// error or an older profile. Under -race this is also the lock discipline
// of the index.
func TestHydrationConcurrentWithCheckpoint(t *testing.T) {
	const users, rounds = 8, 60
	s := openStore(t, t.TempDir())
	type ref struct {
		mu sync.RWMutex // appends+observes exclude hydrate+compare
		l  filter.Learner
	}
	refs := make([]*ref, users)
	name := func(i int) string { return fmt.Sprintf("user-%d", i) }
	for i := range refs {
		refs[i] = &ref{l: core.NewDefault()}
		if err := s.AppendSubscribe(name(i), "MM", nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the checkpointer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Checkpoint(1); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	var work sync.WaitGroup
	for i := range refs {
		work.Add(2)
		go func(i int) { // the writer of user i
			defer work.Done()
			for r := 0; r < rounds; r++ {
				v := vec(fmt.Sprintf("t%d", r%11), 1.0, fmt.Sprintf("u%d", i), 0.3)
				refs[i].mu.Lock()
				if err := s.AppendFeedback(name(i), v, filter.Relevant); err != nil {
					t.Errorf("append: %v", err)
				}
				refs[i].l.Observe(v, filter.Relevant)
				refs[i].mu.Unlock()
			}
		}(i)
		go func(i int) { // its hydrator
			defer work.Done()
			for r := 0; r < rounds; r++ {
				refs[i].mu.RLock()
				l, found, err := s.RestoreUser(name(i))
				if err != nil || !found {
					t.Errorf("RestoreUser(%s): found=%v err=%v", name(i), found, err)
				} else if !bytes.Equal(marshal(t, l), marshal(t, refs[i].l)) {
					t.Errorf("RestoreUser(%s) is not the profile its judgments built", name(i))
				}
				refs[i].mu.RUnlock()
			}
		}(i)
	}
	work.Wait()
	close(stop)
	wg.Wait()
}
