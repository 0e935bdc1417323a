package store

// Tests for what a boot reads (DESIGN.md §14): a segment ends with an index
// frame the manifest points at, so a lazy boot preads that frame and no
// record; every record is still checksummed, and checked against the name
// the index gives it, when it is first read.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
)

// countingFS counts the bytes read out of segment and WAL files, and
// keeps the largest single read of either.
type countingFS struct {
	faultfs.FS
	seg, wal, largest atomic.Int64
}

func (c *countingFS) count(name string, n int) {
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, segPrefix):
		c.seg.Add(int64(n))
	case strings.HasPrefix(base, walPrefix):
		c.wal.Add(int64(n))
	default:
		return
	}
	for m := c.largest.Load(); int64(n) > m && !c.largest.CompareAndSwap(m, int64(n)); m = c.largest.Load() {
	}
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

type countingFile struct {
	faultfs.File
	c *countingFS
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.count(f.Name(), n)
	return n, err
}

// checkpointedStore writes users subscriptions of blob into a fresh store
// in dir and checkpoints them into segments.
func checkpointedStore(tb testing.TB, dir string, users int, blob []byte) {
	tb.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := s.AppendSubscribe(fmt.Sprintf("user-%05d", i), "MM", blob); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(1); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
}

// manifestOf reads dir's committed manifest.
func manifestOf(t *testing.T, dir string) manifest {
	t.Helper()
	mf, found, err := readManifest(faultfs.OS(), dir)
	if err != nil || !found {
		t.Fatalf("manifest: found=%v err=%v", found, err)
	}
	return mf
}

// TestLazyBootReadsOnlyTheIndex is the boot's I/O bound: over 2 000 users
// of ~10 KB in segments, Open + RestoredUsers reads the segment's index
// frame — at most 64 B a user — and no record, and lists exactly the users
// an eager Load holds.
func TestLazyBootReadsOnlyTheIndex(t *testing.T) {
	const users = 2000
	dir := t.TempDir()
	checkpointedStore(t, dir, users, bigProfile(t))

	cfs := &countingFS{FS: faultfs.OS()}
	s, err := Open(dir, Options{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names, err := s.RestoredUsers()
	if err != nil {
		t.Fatal(err)
	}
	read := cfs.seg.Load()
	t.Logf("lazy boot read %d segment bytes for %d users (%.1f B a user)", read, users, float64(read)/users)
	if read > 64*users {
		t.Errorf("lazy boot read %d segment bytes, want at most %d (64 B a user)", read, 64*users)
	}
	profiles, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if want := Users(profiles, events); len(names) != users || fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("RestoredUsers lists %d users, eager Load %d, or not the same ones", len(names), len(want))
	}
}

// TestWALInfoReadsIndexesNotSegments: the flight recorder's and mmstore's
// WALInfo takes the segment's profile count and size from its index frame
// and, on a live store, the WAL's extent and users from the offset index,
// so it reads the index frame and no WAL byte — and still counts every
// profile and dirty user.
func TestWALInfoReadsIndexesNotSegments(t *testing.T) {
	const users = 200
	dir := t.TempDir()
	checkpointedStore(t, dir, users, bigProfile(t))
	cfs := &countingFS{FS: faultfs.OS()}
	s, err := Open(dir, Options{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ { // a WAL tail
		if err := s.AppendFeedback(fmt.Sprintf("user-%05d", i), vec("cat", 1.0), filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}

	at := manifestOf(t, dir).idx
	if at == noIndex {
		t.Fatal("the checkpoint committed no index offset")
	}
	seg, err := os.Stat(s.segPath(s.gen))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.Stat(s.walPath(s.gen))
	if err != nil {
		t.Fatal(err)
	}
	cfs.seg.Store(0)
	cfs.wal.Store(0)
	info, err := s.WALInfo()
	if err != nil {
		t.Fatal(err)
	}
	if segRead, walRead := cfs.seg.Load(), cfs.wal.Load(); segRead > seg.Size()-at || walRead != 0 {
		t.Errorf("WALInfo read %d segment and %d WAL bytes; the index frame is %d of %d segment bytes, and no WAL byte is needed",
			segRead, walRead, seg.Size()-at, seg.Size())
	}
	if info.SegProfiles != users || info.SegBytes != seg.Size() || info.DirtyUsers != 20 || info.Records != 20 || info.Committed != wal.Size() {
		t.Errorf("WALInfo: %d profiles in %d segment bytes, %d records of %d dirty users in %d bytes; want %d in %d, 20 of 20 in %d",
			info.SegProfiles, info.SegBytes, info.Records, info.DirtyUsers, info.Committed, users, seg.Size(), wal.Size())
	}
}

// TestWALInfoEqualsReadOnlyOpen: what a live store answers from its index
// is what a ReadOnly open of the same directory reads off the files, field
// by field — on a whole log, and after a short write poisons the log, when
// Torn is exactly the bytes the failed write left past the committed
// length.
func TestWALInfoEqualsReadOnlyOpen(t *testing.T) {
	for _, partial := range []int{3, 20} { // a torn header, a torn payload
		t.Run(fmt.Sprint(partial), func(t *testing.T) {
			sim := faultfs.NewSim()
			s, err := Open("/state", Options{FS: sim})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				must(s.AppendSubscribe(fmt.Sprintf("user-%d", i), "MM", nil))
				must(s.AppendFeedback(fmt.Sprintf("user-%d", i), fbVec(i), filter.Relevant))
			}
			_, err = s.Checkpoint(1)
			must(err)
			must(s.AppendFeedback("user-1", fbVec(10), filter.Relevant))
			must(s.AppendFeedback("user-1", fbVec(11), filter.NotRelevant))
			must(s.AppendUnsubscribe("user-2"))
			must(s.AppendSubscribe("late", "MM", nil))

			same := func(when string, torn int64) {
				t.Helper()
				live, err := s.WALInfo()
				must(err)
				ro, err := Open("/state", Options{FS: sim, ReadOnly: true})
				must(err)
				defer ro.Close()
				read, err := ro.WALInfo()
				must(err)
				if live != read {
					t.Errorf("%s: live WALInfo %+v, ReadOnly %+v", when, live, read)
				}
				if live.Torn != torn || live.Committed != s.walLen || live.Records != 4 || live.DirtyUsers != 3 || live.SegProfiles != 6 {
					t.Errorf("%s: WALInfo %+v; want 4 records of 3 users in %d bytes, %d torn, 6 profiles", when, live, s.walLen, torn)
				}
			}
			same("whole log", 0)

			sim.SetHook(func(op faultfs.Op) faultfs.Fault {
				if op.Kind == faultfs.OpWrite {
					return faultfs.Fault{Err: faultfs.ErrNoSpace, Partial: partial}
				}
				return faultfs.Fault{}
			})
			if err := s.AppendFeedback("user-3", fbVec(12), filter.Relevant); !errors.Is(err, faultfs.ErrNoSpace) {
				t.Fatalf("want ErrNoSpace, got %v", err)
			}
			sim.SetHook(nil)
			same("poisoned log", int64(partial))
		})
	}
}

// TestReadsAreOneFrameAtATime: Open, Load and Checkpoint stream a
// multi-megabyte WAL and segment through the scan's buffer, so no single
// read of either file is larger than that buffer or the largest frame —
// never the file.
func TestReadsAreOneFrameAtATime(t *testing.T) {
	const users = 200
	dir := t.TempDir()
	checkpointedStore(t, dir, users, bigProfile(t))
	s := openStore(t, dir)
	pairs := make([]any, 0, 200)
	for i := 0; i < 100; i++ {
		pairs = append(pairs, fmt.Sprintf("tailterm%03d", i), 1.0+float64(i%5))
	}
	doc := vec(pairs...)
	for j := 0; s.walLen < 4<<20; j++ {
		if err := s.AppendFeedback(fmt.Sprintf("user-%05d", j%users), doc, filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}
	frame := int64(0)
	for _, refs := range s.walIdx {
		frame = max(frame, 8+int64(refs[0].n))
	}
	if _, err := s.RestoredUsers(); err != nil {
		t.Fatal(err)
	}
	for _, ref := range s.segIdx {
		frame = max(frame, 8+int64(ref.n))
	}
	walBytes := s.walLen
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfs := &countingFS{FS: faultfs.OS()}
	s, err := Open(dir, Options{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	bound := max(scanBufSize, frame)
	t.Logf("over a %d-byte WAL: largest single read %d bytes (buffer %d, largest frame %d)", walBytes, cfs.largest.Load(), scanBufSize, frame)
	if got := cfs.largest.Load(); got > bound {
		t.Errorf("a single read took %d bytes of a %d-byte WAL or its segment; want at most %d", got, walBytes, bound)
	}
}

// damageRecord rewrites user's segment frame in the file at path: how
// "payload" flips a byte of the profile data and leaves the checksum
// stale; "name" flips a byte of the user name and fixes the checksum, so
// only the index's name can tell.
func damageRecord(t *testing.T, path string, ref segRef, how string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := data[ref.off : ref.off+8+int64(ref.n)]
	switch how {
	case "payload":
		frame[len(frame)-3] ^= 0x10
	case "name":
		frame[8+1] ^= 0x01 // past the name's one-byte length
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedColdRecordNeverServed: a lazy boot no longer checksums the
// records it does not read, so a damaged cold record must be caught where
// it is first read — a hydration, a checkpoint's verbatim carry, an eager
// Load — and never served or carried into a new segment. The rest of the
// store keeps working.
func TestDamagedColdRecordNeverServed(t *testing.T) {
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	for _, how := range []string{"payload", "name"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range users {
				if err := s.AppendSubscribe(u, "MM", trainedProfile(t, 1+i%3)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
			want := map[string][]byte{}
			for _, u := range users {
				l, found, err := s.RestoreUser(u)
				if err != nil || !found {
					t.Fatalf("RestoreUser(%s): found=%v err=%v", u, found, err)
				}
				want[u] = marshal(t, l)
			}
			ref, segPath := s.segIdx["carol"], s.segPath(1)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			damageRecord(t, segPath, ref, how)
			before := dirNames(t, dir)
			mfBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}

			s = openStore(t, dir)
			names, err := s.RestoredUsers()
			if err != nil || fmt.Sprint(names) != fmt.Sprint(users) {
				t.Fatalf("lazy boot over a damaged cold record: %v, %v; want every user", names, err)
			}
			if l, found, err := s.RestoreUser("carol"); err == nil {
				t.Fatalf("the damaged record was served: found=%v learner=%v", found, l != nil)
			}
			for _, u := range users {
				if u == "carol" {
					continue
				}
				l, found, err := s.RestoreUser(u)
				if err != nil || !found || !bytes.Equal(marshal(t, l), want[u]) {
					t.Fatalf("RestoreUser(%s) beside the damage: found=%v err=%v, or other bytes", u, found, err)
				}
			}
			if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
				t.Fatal(err)
			}
			if st, err := s.Checkpoint(1); err == nil {
				t.Fatalf("a checkpoint carried the damaged record into a new segment: %+v", st)
			}
			mfAfter, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if after := dirNames(t, dir); fmt.Sprint(after) != fmt.Sprint(before) || !bytes.Equal(mfAfter, mfBefore) {
				t.Fatalf("the failed checkpoint moved the generation: %v → %v", before, after)
			}
			if _, found, err := s.RestoreUser("bob"); err != nil || !found {
				t.Fatalf("RestoreUser(bob) after the failed checkpoint: found=%v err=%v", found, err)
			}
			if _, _, err := s.Load(); err == nil {
				t.Fatal("eager Load accepted the damaged record")
			}
		})
	}
}

// TestDamagedIndexRefusesBoot flips every byte of a segment's index frame,
// header and payload, one at a time: each flip must make the boot fail —
// Open or RestoredUsers — and never list a wrong set of users.
func TestDamagedIndexRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := s.AppendSubscribe(u, "MM", trainedProfile(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	segPath := s.segPath(1)
	s.Close()
	at := manifestOf(t, dir).idx
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if at <= 0 || at >= int64(len(data)) {
		t.Fatalf("index offset %d in a %d-byte segment", at, len(data))
	}
	for off := at; off < int64(len(data)); off++ {
		data[off] ^= 0x10
		if err := os.WriteFile(segPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Options{}); err == nil {
			names, err := s.RestoredUsers()
			s.Close()
			if err == nil {
				t.Fatalf("a flipped index byte at %d booted: %v", off, names)
			}
		}
		data[off] ^= 0x10
	}
}
