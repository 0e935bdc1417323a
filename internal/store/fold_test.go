package store

// Tests for the fold (fold.go): a directory an older release sharded into
// lanes opens as one journal holding exactly what the lanes held, through
// a crash at any syscall of the fold, and a ReadOnly open never folds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
)

// oldLayout describes a directory as an older release wrote it: lanes
// lanes under manifest version (1: bare segments, 2: each segment ending in
// its index frame). User user-<i> lives in lane i % lanes.
type oldLayout struct {
	version byte
	lanes   int
	gens    []uint64 // per lane; 0 means no segment yet
	dirty   []int    // lanes whose WAL holds judgments, a subscribe and an unsubscribe
	torn    int      // a lane whose WAL ends in a torn append, or -1
}

// In version2_4lanes the torn lane is not the last: a fold that copied
// past a committed prefix would put the garbage mid-log, and the open after
// it would refuse the WAL.

// oldLayouts are the directories TestFoldsOlderLayouts and the fold crash
// matrix open.
var oldLayouts = map[string]oldLayout{
	"version1_2lanes": {version: 1, lanes: 2, gens: []uint64{1, 1}, torn: -1},
	"version2_4lanes": {version: 2, lanes: 4, gens: []uint64{3, 1, 0, 2}, dirty: []int{1, 2}, torn: 1},
}

// write lays the layout out in dir through fsys, every file and the
// directory synced, and returns the learners it holds. Each lane's WAL is
// the WAL a one-journal store writes for the same appends, so the records
// are the real encoder's.
func (ly oldLayout) write(t *testing.T, fsys faultfs.FS, dir string) map[string]*core.Profile {
	t.Helper()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	put := func(name string, data []byte) {
		f, err := fsys.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err == nil {
			_, err = f.Write(data)
		}
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	live := map[string]*core.Profile{}
	mf := []byte{'M', 'M', 'L', 'N', ly.version, 7, byte(ly.lanes)} // epoch 7, one-byte uvarints
	for id := 0; id < ly.lanes; id++ {
		gen := ly.gens[id]
		var seg, entries []byte
		users := 0
		for i := id; gen > 0 && i < 3*ly.lanes; i += ly.lanes {
			user := fmt.Sprintf("user-%d", i)
			l := core.NewDefault()
			l.Observe(fbVec(i), filter.Relevant)
			live[user] = l
			payload := encodeProfilePayload(user, "MM", marshal(t, l))
			seg = append(seg, frameOf(t, payload)...)
			entries = appendSegIndexEntry(entries, user, uint32(len(payload)))
			users++
		}
		mf = binary.AppendUvarint(mf, gen)
		if ly.version == 2 {
			at := uint64(0) // noIndex + 1
			if gen > 0 {
				at = uint64(len(seg)) + 1
				seg = append(seg, frameOf(t, encodeSegIndex(users, entries))...)
			}
			mf = binary.AppendUvarint(mf, at)
		}
		if gen > 0 {
			put(fmt.Sprintf("seg-%03d-%08d.db", id, gen), seg)
		}

		wal := t.TempDir()
		js, err := Open(wal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ly.dirty {
			if d != id {
				continue
			}
			old, fresh := fmt.Sprintf("user-%d", id), fmt.Sprintf("new-%d", id)
			if live[old] == nil { // a lane at generation 0: subscribe first
				live[old] = core.NewDefault()
				if err := js.AppendSubscribe(old, "MM", nil); err != nil {
					t.Fatal(err)
				}
			}
			live[old].Observe(fbVec(100+id), filter.Relevant)
			live[fresh] = core.NewDefault()
			live[fresh].Observe(fbVec(200+id), filter.Relevant)
			delete(live, fmt.Sprintf("user-%d", id+ly.lanes))
			for _, err := range []error{
				js.AppendFeedback(old, fbVec(100+id), filter.Relevant),
				js.AppendSubscribe(fresh, "MM", nil),
				js.AppendFeedback(fresh, fbVec(200+id), filter.Relevant),
				js.AppendUnsubscribe(fmt.Sprintf("user-%d", id+ly.lanes)),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := js.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(wal, "wal-000-00000000.log"))
		if err != nil {
			t.Fatal(err)
		}
		if id == ly.torn {
			// Half of a subscribe that was never acknowledged.
			data = append(data, frameOf(t, []byte{byte(EventSubscribe), 4, 'l', 'o', 's', 't'})[:9]...)
		}
		put(fmt.Sprintf("wal-%03d-%08d.log", id, gen), data)
	}
	put(manifestName, frameOf(t, mf))
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	return live
}

// frameOf is payload framed as a record.
func frameOf(t *testing.T, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeRecord(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// requireHolds checks that s holds exactly live, by Load + Restore and by
// hydration.
func requireHolds(t *testing.T, s *Store, live map[string]*core.Profile) {
	t.Helper()
	profiles, events, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	learners, err := Restore(profiles, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(learners) != len(live) {
		t.Fatalf("restored %d users, the lanes held %d", len(learners), len(live))
	}
	for user, l := range live {
		if r := learners[user]; r == nil || !bytes.Equal(marshal(t, r), marshal(t, l)) {
			t.Fatalf("%s does not restore to the learner written", user)
		}
	}
	requireHydrationEqualsRestore(t, s, learners)
}

// requireFolded checks that dir holds one journal above every old
// generation and nothing else, and returns the manifest.
func requireFolded(t *testing.T, fsys faultfs.FS, dir string, ly oldLayout) manifest {
	t.Helper()
	mf, _, err := readManifest(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	top := uint64(0)
	for _, g := range ly.gens {
		top = max(top, g)
	}
	if len(mf.gens) != 1 || mf.gens[0] != top+1 || mf.idx[0] == noIndex {
		t.Fatalf("manifest after the fold: generations %v, index offsets %v; want one lane at %d with an index", mf.gens, mf.idx, top+1)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{manifestName, fmt.Sprintf("seg-000-%08d.db", top+1), fmt.Sprintf("wal-000-%08d.log", top+1)}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("directory after the fold: %v, want %v", names, want)
	}
	return mf
}

// TestFoldsOlderLayouts: each older layout opens as one journal holding
// exactly the learners its lanes held — segments carried verbatim, WAL
// tails replayed, the torn append dropped — leaves one lane and no old
// file, stays appendable and checkpointable, and is not folded twice.
func TestFoldsOlderLayouts(t *testing.T) {
	for name, ly := range oldLayouts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			live := ly.write(t, faultfs.OS(), dir)
			s := openStore(t, dir)
			requireHolds(t, s, live)
			epoch := requireFolded(t, faultfs.OS(), dir, ly).epoch
			if epoch != 8 {
				t.Errorf("the fold committed epoch %d, want 8", epoch)
			}
			s.Close()

			s = openStore(t, dir)
			requireHolds(t, s, live)
			if got := manifestOf(t, dir).epoch; got != epoch {
				t.Fatalf("a second open moved the manifest epoch from %d to %d", epoch, got)
			}
			live["user-0"].Observe(fbVec(99), filter.Relevant)
			if err := s.AppendFeedback("user-0", fbVec(99), filter.Relevant); err != nil {
				t.Fatal(err)
			}
			if st, err := s.Checkpoint(1); err != nil || st.Profiles != len(live) {
				t.Fatalf("checkpoint after the fold: %+v, %v", st, err)
			}
			s.Close()
			requireHolds(t, openStore(t, dir), live)
		})
	}
}

// TestFoldCrashMatrix crashes the machine at every syscall of a fold (and
// of the open around it), reboots and reopens: whichever side of the
// manifest rename the crash fell on, the store holds the same learners and
// ends as one journal.
func TestFoldCrashMatrix(t *testing.T) {
	ly := oldLayouts["version2_4lanes"]
	calib := faultfs.NewSim()
	live := ly.write(t, calib, "/state")
	base := calib.Ops()
	s, err := Open("/state", Options{FS: calib})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	total := calib.Ops() - base
	if total < 10 {
		t.Fatalf("implausibly small op count %d", total)
	}
	for k := 1; k <= total; k++ {
		t.Run(fmt.Sprintf("crash_at_%03d", k), func(t *testing.T) {
			sim := faultfs.NewSim()
			ly.write(t, sim, "/state")
			sim.SetHook(faultfs.CrashAt(sim.Ops() + k))
			if s, err := Open("/state", Options{FS: sim}); err == nil {
				s.Close()
			} else if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("open failed with a non-crash error: %v", err)
			}
			sim.SetHook(nil)
			sim.Reboot()

			s, err := Open("/state", Options{FS: sim})
			if err != nil {
				t.Fatalf("reopen after the crash: %v", err)
			}
			defer s.Close()
			requireHolds(t, s, live)
			requireFolded(t, sim, "/state", ly)
		})
	}
}

// TestFoldRefusals: a ReadOnly open of an unfolded directory refuses it,
// and so does a writing open of one where a user is in two lanes or a WAL
// is damaged before its tail; none of them writes, renames or removes
// anything.
func TestFoldRefusals(t *testing.T) {
	ly := oldLayouts["version2_4lanes"]
	cases := []struct {
		name, want string
		opts       Options
		damage     func(t *testing.T, dir string)
	}{
		{"read_only", "open it once for writing", Options{ReadOnly: true}, nil},
		{"user_in_two_lanes", `"user-0" is in lanes 0 and 1`, Options{}, func(t *testing.T, dir string) {
			// A record of lane 0's user at the head of lane 1's WAL.
			path := filepath.Join(dir, "wal-001-00000001.log")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			head := frameOf(t, []byte{byte(EventUnsubscribe), 6, 'u', 's', 'e', 'r', '-', '0'})
			if err := os.WriteFile(path, append(head, data...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"mid_log_corruption", "checksum mismatch", Options{}, func(t *testing.T, dir string) {
			path := filepath.Join(dir, "wal-002-00000000.log")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[10] ^= 0x10 // inside the first of several records
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ly.write(t, faultfs.OS(), dir)
			if tc.damage != nil {
				tc.damage(t, dir)
			}
			before := snapshotDir(t, dir)
			s, err := Open(dir, tc.opts)
			if err == nil {
				s.Close()
				t.Fatal("the open succeeded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("open: %v, want it to say %q", err, tc.want)
			}
			if after := snapshotDir(t, dir); after != before {
				t.Fatalf("the refused open changed the directory:\n%s\nbecame\n%s", before, after)
			}
		})
	}
}

// snapshotDir renders every file in dir with its length and checksum, for
// comparing a directory before and after.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(&b, "%s %d %08x\n", d.Name(), len(data), crc32.ChecksumIEEE(data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
