package store

// Tests for what a boot reads (DESIGN.md §14): a segment ends with an index
// frame the manifest points at, so a lazy boot preads that frame and no
// record; every record is still checksummed, and checked against the name
// the index gives it, when it is first read.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
)

// countingFS counts the bytes read out of segment and WAL files, whole or
// by pread.
type countingFS struct {
	faultfs.FS
	seg, wal atomic.Int64
}

func (c *countingFS) count(name string, n int) {
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, segPrefix):
		c.seg.Add(int64(n))
	case strings.HasPrefix(base, walPrefix):
		c.wal.Add(int64(n))
	}
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	c.count(name, len(data))
	return data, err
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
// of ~10 KB in segments, Open + RestoredUsers reads each lane's index
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

// TestWALInfoReadsIndexesNotSegments: the flight recorder's WALInfo (and
// mmstore's LaneInfos) take a segment's profile count and size from its
// index frame, so over indexed lanes they read the index frames and the
// WALs and nothing else — and still count every profile.
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
	for i := 0; i < 20; i++ { // a WAL tail over some lanes
		if err := s.AppendFeedback(fmt.Sprintf("user-%05d", i), vec("cat", 1.0), filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}

	var indexBytes, walBytes, segBytes int64
	mf := manifestOf(t, dir)
	for _, ln := range s.lanes {
		seg, err := os.Stat(s.segPath(ln, ln.gen))
		if err != nil {
			t.Fatal(err)
		}
		wal, err := os.Stat(s.walPath(ln, ln.gen))
		if err != nil {
			t.Fatal(err)
		}
		if mf.idx[ln.id] == noIndex {
			t.Fatalf("lane %d: the checkpoint committed no index offset", ln.id)
		}
		indexBytes += seg.Size() - mf.idx[ln.id]
		segBytes += seg.Size()
		walBytes += wal.Size()
	}
	cfs.seg.Store(0)
	cfs.wal.Store(0)
	if _, err := s.WALInfo(); err != nil {
		t.Fatal(err)
	}
	if seg, wal := cfs.seg.Load(), cfs.wal.Load(); seg > indexBytes || wal > walBytes {
		t.Errorf("WALInfo read %d segment and %d WAL bytes; the index frames are %d of %d segment bytes, the WALs %d",
			seg, wal, indexBytes, segBytes, walBytes)
	}
	lis, err := s.LaneInfos()
	if err != nil {
		t.Fatal(err)
	}
	profiles, sizes := 0, int64(0)
	for _, li := range lis {
		profiles += li.SegProfiles
		sizes += li.SegBytes
	}
	if profiles != users || sizes != segBytes {
		t.Errorf("LaneInfos: %d profiles in %d segment bytes, want %d in %d", profiles, sizes, users, segBytes)
	}
}

// damageRecord rewrites user's segment frame in dir's one-lane store: how
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
// lane keeps working.
func TestDamagedColdRecordNeverServed(t *testing.T) {
	users := []string{"alice", "bob", "carol", "dave", "erin"}
	for _, how := range []string{"payload", "name"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Lanes: 1})
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
			ref, segPath := s.lanes[0].segIdx["carol"], s.segPath(s.lanes[0], 1)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			damageRecord(t, segPath, ref, how)
			before := dirNames(t, dir)
			mfBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}

			s = openStoreLanes(t, dir, 1)
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
	s := openStoreLanes(t, dir, 1)
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := s.AppendSubscribe(u, "MM", trainedProfile(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	segPath := s.segPath(s.lanes[0], 1)
	s.Close()
	at := manifestOf(t, dir).idx[0]
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

// TestOpensVersion1Layout: a directory a version-1 store wrote — segments
// of bare profile records, a manifest without index offsets — opens, lists
// and hydrates the same users through the segment scan; a checkpoint then
// writes manifest version 2, with an index for the lane it rewrote and
// none for the lane it did not.
func TestOpensVersion1Layout(t *testing.T) {
	const lanes = 2
	dir := t.TempDir()
	live := map[string]filter.Learner{}
	segs := make([]bytes.Buffer, lanes)
	for i := 0; len(live) < 6; i++ {
		user := fmt.Sprintf("user-%d", i)
		l := core.NewDefault()
		l.Observe(fbVec(i), filter.Relevant)
		live[user] = l
		if err := writeRecord(&segs[laneFNV32(user)%lanes], encodeProfilePayload(user, "MM", marshal(t, l))); err != nil {
			t.Fatal(err)
		}
	}
	for id := range segs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%03d-00000001.db", id)), segs[id].Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	v1 := []byte{'M', 'M', 'L', 'N', 1, 1, lanes, 1, 1} // epoch 1, generation 1 in both lanes
	var mf bytes.Buffer
	if err := writeRecord(&mf, v1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), mf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(s *Store) {
		t.Helper()
		profiles, events, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		learners, err := Restore(profiles, events)
		if err != nil {
			t.Fatal(err)
		}
		for user, l := range live {
			if r := learners[user]; r == nil || !bytes.Equal(marshal(t, r), marshal(t, l)) {
				t.Fatalf("%s does not restore to the learner written", user)
			}
		}
		requireHydrationEqualsRestore(t, s, learners)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	user := "user-0"
	live[user].Observe(fbVec(99), filter.Relevant)
	if err := s.AppendFeedback(user, fbVec(99), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Checkpoint(1); err != nil || st.Rewritten != 1 {
		t.Fatalf("checkpoint: %+v, %v", st, err)
	}
	check(s)
	s.Close()

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if payloads, _, err := scanRecords(data); err != nil || len(payloads) != 1 || payloads[0][4] != 2 {
		t.Fatalf("the manifest after a checkpoint is not version 2: %v", err)
	}
	got := manifestOf(t, dir)
	for id := 0; id < lanes; id++ {
		if rewritten := id == int(laneFNV32(user)%lanes); (got.idx[id] != noIndex) != rewritten {
			t.Errorf("lane %d: index offset %d, rewritten %v", id, got.idx[id], rewritten)
		}
	}
	s = openStore(t, dir)
	check(s)
}
