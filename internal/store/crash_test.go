package store

// The crash matrix: run a fixed Subscribe/Feedback/Checkpoint/Sync
// workload against a store on the simulated filesystem, kill the
// machine at every single syscall boundary (faultfs.CrashAt tears the
// in-flight write), reboot, reopen, and require that RestoreAll
// succeeds and yields exactly a prefix of the workload — never shorter
// than what durability was acknowledged for, never a panic, never an
// error, and always appendable afterwards — and that the lazy read path
// (RestoredUsers + RestoreUser over the offset index, decoded from the
// index frame each checkpointed segment ends with) agrees with it user for
// user. This is the test that proves
// the torn-tail repair, the segment/manifest rename ordering in
// Checkpoint (including crashes between the segment's fsync and the
// manifest rename), and the group-commit ack semantics all at once.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

// matrixOp is one scripted workload step.
type matrixOp struct {
	kind  string // "sub", "unsub", "fb", "ckpt", "sync"
	user  string
	fbIdx int // unique feedback index ("fb" only)
}

// matrixScript mixes every record type with checkpoints and explicit
// barriers; feedback indices are globally unique so the recovered state
// reveals exactly which ops survived. The second checkpoint writes "z"
// into the segment beside "u"; the third drops "z" again after its
// unsubscribe, rewrites "u" and adds "w"; the fourth carries "u"'s record
// verbatim beside "w"'s rewritten one.
var matrixScript = []matrixOp{
	{kind: "sub", user: "u"},
	{kind: "fb", user: "u", fbIdx: 0},
	{kind: "fb", user: "u", fbIdx: 1},
	{kind: "fb", user: "u", fbIdx: 2},
	{kind: "ckpt"},
	{kind: "sub", user: "z"},
	{kind: "fb", user: "z", fbIdx: 3},
	{kind: "fb", user: "u", fbIdx: 4},
	{kind: "fb", user: "z", fbIdx: 5},
	{kind: "ckpt"},
	{kind: "unsub", user: "z"},
	{kind: "fb", user: "u", fbIdx: 6},
	{kind: "sync"},
	{kind: "fb", user: "u", fbIdx: 7},
	{kind: "fb", user: "u", fbIdx: 8},
	{kind: "sub", user: "w"},
	{kind: "fb", user: "w", fbIdx: 9},
	{kind: "ckpt"},
	{kind: "fb", user: "w", fbIdx: 10},
	{kind: "ckpt"},
}

// fbVec is feedback i's document vector: a unit vector on a term only
// feedback i uses, so profile probing recovers the applied-op set.
func fbVec(i int) vsm.Vector {
	return vec(fmt.Sprintf("t%04d", i), 1.0)
}

// matrixState is the observable profile state: which users exist and
// which feedback indices each has absorbed.
type matrixState map[string]map[int]bool

func (st matrixState) equal(other matrixState) bool {
	if len(st) != len(other) {
		return false
	}
	for u, fbs := range st {
		o, ok := other[u]
		if !ok || len(fbs) != len(o) {
			return false
		}
		for i := range fbs {
			if !o[i] {
				return false
			}
		}
	}
	return true
}

// expectedState replays the first n script ops into the observable state.
func expectedState(n int) matrixState {
	st := matrixState{}
	for _, op := range matrixScript[:n] {
		switch op.kind {
		case "sub":
			st[op.user] = map[int]bool{}
		case "unsub":
			delete(st, op.user)
		case "fb":
			st[op.user][op.fbIdx] = true
		}
	}
	return st
}

// probeState extracts the observable state from restored learners: a
// feedback was applied iff its private term scores positive.
func probeState(learners map[string]*core.Profile, maxFb int) matrixState {
	st := matrixState{}
	for u, l := range learners {
		fbs := map[int]bool{}
		for i := 0; i < maxFb; i++ {
			if l.Score(fbVec(i)) > 1e-9 {
				fbs[i] = true
			}
		}
		st[u] = fbs
	}
	return st
}

// TestProbeStateSanity pins the probing trick itself: MM absorbs each
// relevant judgment's term with positive weight, so probing recovers the
// exact applied set.
func TestProbeStateSanity(t *testing.T) {
	l := core.NewDefault()
	for i := 0; i < 5; i++ {
		l.Observe(fbVec(i), filter.Relevant)
	}
	st := probeState(map[string]*core.Profile{"u": l}, 9)
	want := matrixState{"u": {0: true, 1: true, 2: true, 3: true, 4: true}}
	if !st.equal(want) {
		t.Fatalf("probe = %v, want %v", st, want)
	}
}

// runMatrixWorkload drives the script until completion or the first
// error. It returns how many ops were applied, how many of those are
// durability-guaranteed, and the first error.
func runMatrixWorkload(s *Store, durablePerAppend bool) (applied, guaranteed int, err error) {
	for _, op := range matrixScript {
		switch op.kind {
		case "sub":
			err = s.AppendSubscribe(op.user, "MM", nil)
		case "unsub":
			err = s.AppendUnsubscribe(op.user)
		case "fb":
			err = s.AppendFeedback(op.user, fbVec(op.fbIdx), filter.Relevant)
		case "sync":
			err = s.Sync()
		case "ckpt":
			_, err = s.Checkpoint(1)
		}
		if err != nil {
			return applied, guaranteed, err
		}
		applied++
		// Durability acknowledgments: a durable-mode append, an explicit
		// barrier, or a checkpoint guarantees everything applied so far.
		if durablePerAppend || op.kind == "sync" || op.kind == "ckpt" {
			guaranteed = applied
		}
	}
	return applied, guaranteed, nil
}

func TestCrashMatrixDurable(t *testing.T) { crashMatrix(t, true, false) }
func TestCrashMatrixRelaxed(t *testing.T) { crashMatrix(t, false, false) }

// TestCrashMatrixPerEntry is the durable matrix in faultfs's per-entry
// crash mode: at every crash point, each subset of the directory's unsynced
// entry changes survives the power cut in turn (subtest keep_<mask>, bit i
// the i-th change), a later rename without an earlier one included. It is
// the matrix that needs every directory fsync a checkpoint makes: without
// the one between the segment's rename and the manifest's, a MANIFEST can
// survive that names a segment whose rename did not.
func TestCrashMatrixPerEntry(t *testing.T) { crashMatrix(t, true, true) }

func crashMatrix(t *testing.T, durable, perEntry bool) {
	opts := func(sim *faultfs.Sim) Options {
		return Options{FS: sim, Durable: durable}
	}

	// Calibration pass: count the workload's total syscall footprint.
	calib := faultfs.NewSim()
	s, err := Open("/state", opts(calib))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runMatrixWorkload(s, durable); err != nil {
		t.Fatal(err)
	}
	s.Close()
	total := calib.Ops()
	if total < 20 {
		t.Fatalf("implausibly small op count %d", total)
	}

	for k := 1; k <= total; k++ {
		k := k
		// crash runs the workload on a fresh machine that dies at op k.
		crash := func(t *testing.T) (sim *faultfs.Sim, applied, guaranteed int) {
			sim = faultfs.NewSim()
			sim.SetHook(faultfs.CrashAt(k))
			s, err := Open("/state", opts(sim))
			if err == nil {
				applied, guaranteed, err = runMatrixWorkload(s, durable)
				s.Close() // post-crash close errors are expected
			}
			if err != nil && !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("workload failed with a non-crash error: %v", err)
			}
			if err == nil && sim.Crashed() {
				// The crash landed inside Close, after the workload: every
				// op was applied, the durability guarantees are unchanged.
				applied = len(matrixScript)
			}
			sim.SetHook(nil)
			return sim, applied, guaranteed
		}
		t.Run(fmt.Sprintf("crash_at_%03d", k), func(t *testing.T) {
			sim, applied, guaranteed := crash(t)
			if !perEntry {
				// Power-cycle: volatile state is gone, the machine is back.
				sim.Reboot()
				requireRecovers(t, sim, opts(sim), applied, guaranteed)
				return
			}
			n := sim.Unsynced("/state")
			if n > 8 {
				t.Fatalf("%d unsynced entry changes at one crash point", n)
			}
			for mask := 0; mask < 1<<n; mask++ {
				t.Run(fmt.Sprintf("keep_%0*b", max(n, 1), mask), func(t *testing.T) {
					if mask > 0 {
						sim, applied, guaranteed = crash(t)
					}
					sim.RebootKeeping(func(_ string, i, _ int) bool { return mask>>i&1 == 1 })
					requireRecovers(t, sim, opts(sim), applied, guaranteed)
				})
			}
		})
	}
}

// requireRecovers reopens a rebooted machine and requires what the crash
// matrix promises: recovery never errors and never loses an acknowledged
// record, the state is a prefix of the workload at least guaranteed ops
// long, and the store stays appendable.
func requireRecovers(t *testing.T, sim *faultfs.Sim, opts Options, applied, guaranteed int) {
	t.Helper()
	s2, err := Open("/state", opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	// The offset index the reopen built over whatever the crash left
	// — torn tails, half-staged segments, either side of the manifest
	// rename — must hydrate every user to what the full replay holds.
	learners := requireRebuildersAgree(t, s2)
	got := probeState(learners, len(matrixScript))
	match := -1
	for m := guaranteed; m <= applied+1 && m <= len(matrixScript); m++ {
		if got.equal(expectedState(m)) {
			match = m
			break
		}
	}
	if match < 0 {
		t.Fatalf("recovered state %v is no prefix ≥ %d of the workload (applied %d)",
			got, guaranteed, applied)
	}

	// The reopened store must be fully usable: the torn-tail
	// repair has to leave the log appendable (this is the exact
	// reopen-append-reload sequence that corrupted the store
	// before the fix).
	if err := s2.AppendSubscribe("q", "MM", nil); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := s2.AppendFeedback("q", fbVec(9), filter.Relevant); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	s3, err := Open("/state", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	l3 := requireRebuildersAgree(t, s3)
	if l3["q"] == nil || l3["q"].Score(fbVec(9)) <= 1e-9 {
		t.Fatalf("post-recovery appends lost")
	}
}

// TestCheckpointDurableAcrossCrash pins the rename-ordering fix in
// isolation: once Checkpoint returns, a hard power cut must not roll
// recovery back a generation — the segment rename, the manifest rename,
// and the new log's creation are all covered by directory fsyncs.
func TestCheckpointDurableAcrossCrash(t *testing.T) {
	sim := faultfs.NewSim()
	s, err := Open("/state", Options{FS: sim, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("u", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("u", fbVec(0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	// Hard power cut with no further syscalls: the checkpoint must hold.
	sim.Reboot()
	s2, err := Open("/state", Options{FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	profiles, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 || len(events) != 0 {
		t.Fatalf("checkpoint not durable: %d profiles, %d events", len(profiles), len(events))
	}
	if learners := requireRebuildersAgree(t, s2); learners["u"].Score(fbVec(0)) <= 1e-9 {
		t.Fatal("checkpointed profile lost feedback 0")
	}
}

// TestLyingFsyncIsOutOfScope documents the fault model's boundary: a
// drive that acknowledges fsyncs without persisting defeats any WAL; the
// store's guarantee is conditional on honest fsyncs, and recovery must
// still come up empty-but-consistent rather than corrupt.
func TestLyingFsyncIsOutOfScope(t *testing.T) {
	sim := faultfs.NewSim()
	sim.SetHook(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpSync || op.Kind == faultfs.OpSyncDir {
			return faultfs.Fault{LieSync: true}
		}
		return faultfs.Fault{}
	})
	s, err := Open("/state", Options{FS: sim, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("u", "MM", nil); err != nil {
		t.Fatal(err) // the lie: this ack is worthless
	}
	sim.SetHook(nil)
	sim.Reboot()
	// MkdirAll recreates the (volatile-lost) directory; recovery must be
	// clean and empty, not corrupt.
	s2, err := Open("/state", Options{FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	profiles, events, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 0 || len(events) != 0 {
		t.Fatalf("impossible durability under lying fsyncs: %d/%d", len(profiles), len(events))
	}
}

// TestWriteErrorPoisonsStore pins the short-write policy: after a failed
// append the store refuses further appends (the file tail is of unknown
// extent) and Health reports it, Load still serves the committed prefix,
// and reopening repairs.
func TestWriteErrorPoisonsStore(t *testing.T) {
	sim := faultfs.NewSim()
	s, err := Open("/state", Options{FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("u", "MM", nil); err != nil {
		t.Fatal(err)
	}
	// Fail the next write mid-record: ENOSPC with a torn tail.
	sim.SetHook(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpWrite {
			return faultfs.Fault{Err: faultfs.ErrNoSpace, Partial: op.Len / 2}
		}
		return faultfs.Fault{}
	})
	if err := s.AppendFeedback("u", fbVec(0), filter.Relevant); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	sim.SetHook(nil)
	if err := s.AppendFeedback("u", fbVec(1), filter.Relevant); err == nil {
		t.Fatal("append accepted after a torn write — would corrupt the log")
	}
	if err := s.AppendSubscribe("z", "MM", nil); err == nil {
		t.Fatal("another user's append accepted after a torn write")
	}
	if err := s.Health(); err == nil {
		t.Fatal("poisoned store not reported by Health")
	}
	// The committed prefix is still readable around the poison.
	_, events, err := s.Load()
	if err != nil || len(events) != 1 {
		t.Fatalf("load on poisoned store: %d events, %v", len(events), err)
	}
	s.Close()
	// Reopen repairs the torn tail and appends flow again.
	s2, err := Open("/state", Options{FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AppendFeedback("u", fbVec(2), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	_, events, err = s2.Load()
	if err != nil || len(events) != 2 {
		t.Fatalf("after repair: %d events, %v", len(events), err)
	}
}

// TestSyncErrorPoisonsStore: a failed group fsync refuses the records it
// covered and poisons the write path before their appenders hear of it.
// No later record is written, Checkpoint refuses and Close syncs nothing,
// so the refused records never become durable behind the refusal, and
// nothing appended after it exists to land on top of them.
func TestSyncErrorPoisonsStore(t *testing.T) {
	sim := faultfs.NewSim()
	s, err := Open("/state", Options{FS: sim, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("u", "MM", nil); err != nil {
		t.Fatal(err)
	}
	sim.SetHook(func(op faultfs.Op) faultfs.Fault {
		if op.Kind == faultfs.OpSync {
			return faultfs.Fault{Err: faultfs.ErrInjected}
		}
		return faultfs.Fault{}
	})
	if err := s.AppendFeedback("u", fbVec(0), filter.Relevant); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	sim.SetHook(nil)
	ops := sim.Ops()
	if err := s.AppendUnsubscribe("u"); err == nil {
		t.Fatal("append accepted after a failed fsync")
	}
	if err := s.Health(); err == nil {
		t.Fatal("poisoned store not reported by Health")
	}
	if _, err := s.Checkpoint(1); err == nil {
		t.Fatal("checkpoint of a poisoned store succeeded")
	}
	s.Close()
	if n := sim.Ops() - ops; n != 0 {
		t.Fatalf("%d writes or syncs after the failed fsync", n)
	}
	sim.Reboot()
	s2, err := Open("/state", Options{FS: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, events, err := s2.Load(); err != nil || len(events) != 1 {
		t.Fatalf("after reboot: %d events, %v; want the acknowledged subscribe alone", len(events), err)
	}
}

// TestOpenRefusesPreManifestLayout: a directory without a MANIFEST that
// holds wal-<seq>.log / snap-<seq>.db files is some earlier release's
// acknowledged journal. Open — read-write and ReadOnly — must name the
// layout in its error and perform no mutating filesystem operation: the
// fresh-store branch would write a manifest and its stray sweep would then
// delete the log.
func TestOpenRefusesPreManifestLayout(t *testing.T) {
	const snap, wal = "/state/snap-00000001.db", "/state/wal-00000001.log"
	for _, files := range [][]string{{snap, wal}, {snap}, {wal}} {
		sim := faultfs.NewSim()
		if err := sim.MkdirAll("/state", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := sim.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("acknowledged: " + path)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		seeded := sim.Ops()

		for _, opts := range []Options{{FS: sim}, {FS: sim, ReadOnly: true}} {
			s, err := Open("/state", opts)
			if err == nil {
				s.Close()
				t.Fatalf("Open(%v, ReadOnly=%v) accepted a pre-manifest directory", files, opts.ReadOnly)
			}
			if !strings.Contains(err.Error(), "pre-manifest layout") {
				t.Errorf("Open(%v, ReadOnly=%v) error does not name the layout: %v", files, opts.ReadOnly, err)
			}
		}

		if got := sim.Ops(); got != seeded {
			t.Errorf("%v: refused opens performed %d mutating operations", files, got-seeded)
		}
		if entries, err := sim.ReadDir("/state"); err != nil || len(entries) != len(files) {
			t.Errorf("%v: directory holds %d entries after the refused opens (%v)", files, len(entries), err)
		}
		for _, path := range files {
			if got, err := sim.ReadFile(path); err != nil || string(got) != "acknowledged: "+path {
				t.Errorf("%s after the refused opens = %q, %v", path, got, err)
			}
		}
	}
}

// TestCheckpointAfterRecoveryCompactsTheTail: a WAL tail the store
// recovered at Open is as dirty as one it appended itself. After a power
// cut, and after a Close that took no checkpoint, the reopened store's
// dirty gauge counts the recovered users, agreeing with what WALInfo reads
// off the files; one Checkpoint(1) compacts them into the next generation,
// carrying every other record verbatim; after it those users hydrate from
// their segment record alone; and the compacted state is the pre-crash
// learners byte for byte.
func TestCheckpointAfterRecoveryCompactsTheTail(t *testing.T) {
	for _, how := range []string{"power cut", "close"} {
		t.Run(how, func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			sim := faultfs.NewSim()
			s, err := Open("/state", Options{FS: sim, Durable: true})
			must(err)
			live := map[string]*core.Profile{}
			subscribe := func(user string) {
				live[user] = core.NewDefault()
				must(s.AppendSubscribe(user, "MM", nil))
			}
			feedback := func(user string, i int) {
				live[user].Observe(fbVec(i), filter.Relevant)
				must(s.AppendFeedback(user, fbVec(i), filter.Relevant))
			}
			// Twelve users, all in the segment; then a tail: feedback for
			// four of them, one user who leaves, one who arrives.
			var users []string
			for i := 0; i < 12; i++ {
				users = append(users, fmt.Sprintf("user-%02d", i))
				subscribe(users[i])
				feedback(users[i], i)
			}
			_, err = s.Checkpoint(1)
			must(err)
			tail := map[string]bool{}
			for i, user := range users[:4] {
				feedback(user, 100+i)
				feedback(user, 200+i)
				tail[user] = true
			}
			gone := users[4]
			must(s.AppendUnsubscribe(gone))
			delete(live, gone)
			tail[gone] = true
			subscribe("late")
			feedback("late", 300)
			tail["late"] = true
			if how == "close" {
				must(s.Close())
			}
			sim.Reboot()

			reg := metrics.NewRegistry()
			s2, err := Open("/state", Options{FS: sim, Metrics: reg})
			must(err)
			defer s2.Close()
			dirtyGauge := func() int { return int(reg.Snapshot()["mm_store_dirty_profiles"].(float64)) }
			readBytes := func() int64 { return reg.Snapshot()["mm_store_restore_read_bytes_total"].(int64) }
			walInfo := func() WALInfo {
				t.Helper()
				info, err := s2.WALInfo()
				must(err)
				return info
			}
			before := walInfo()
			if got := dirtyGauge(); got != len(tail) || got != before.DirtyUsers {
				t.Fatalf("after recovery mm_store_dirty_profiles = %d, WALInfo counts %d, the tail holds %d users", got, before.DirtyUsers, len(tail))
			}
			hydrate := func(user string) (read, segRecord int64) {
				t.Helper()
				at := readBytes()
				l, found, err := s2.RestoreUser(user)
				if err != nil || !found || !bytes.Equal(marshal(t, l), marshal(t, live[user])) {
					t.Fatalf("RestoreUser(%q): found=%v err=%v, or not the learner that lived through the events", user, found, err)
				}
				return readBytes() - at, 8 + int64(s2.segIdx[user].n)
			}
			for user := range tail {
				if user == gone {
					continue
				}
				if read, seg := hydrate(user); read <= seg {
					t.Errorf("%s before the checkpoint: read %d bytes, its segment record is %d: the tail was not read", user, read, seg)
				}
			}

			st, err := s2.Checkpoint(1)
			must(err)
			if carried := len(users) - (len(tail) - 1); st.Profiles != len(live) || st.Carried != carried {
				t.Fatalf("Checkpoint(1) after recovery = %+v, want %d profiles, %d carried", st, len(live), carried)
			}
			if got := dirtyGauge(); got != 0 {
				t.Errorf("mm_store_dirty_profiles = %d after the checkpoint", got)
			}
			if after := walInfo(); after.DirtyUsers != 0 || after.Gen != before.Gen+1 {
				t.Errorf("after the checkpoint: gen %d dirty %d, want gen %d and nothing dirty", after.Gen, after.DirtyUsers, before.Gen+1)
			}
			for user := range tail {
				if user == gone {
					continue
				}
				if read, seg := hydrate(user); read != seg {
					t.Errorf("%s after the checkpoint: read %d bytes, its segment record is %d", user, read, seg)
				}
			}
			if _, found, err := s2.RestoreUser(gone); err != nil || found {
				t.Errorf("RestoreUser(%q): found=%v err=%v, want an unsubscribed user", gone, found, err)
			}
			if info := walInfo(); info.Records != 0 {
				t.Fatalf("after the checkpoint the WAL holds %d records", info.Records)
			}
			restored := requireRebuildersAgree(t, s2)
			if len(restored) != len(live) {
				t.Fatalf("%d users restored, %d lived", len(restored), len(live))
			}
			for user, l := range live {
				if r := restored[user]; r == nil || !bytes.Equal(marshal(t, r), marshal(t, l)) {
					t.Errorf("%s: the compacted profile differs from the learner that lived through the events", user)
				}
			}
		})
	}
}
