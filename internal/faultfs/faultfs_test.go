package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"testing"
)

func mustMkdir(t *testing.T, s *Sim, dir string) {
	t.Helper()
	if err := s.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
}

func writeAll(t *testing.T, f File, b []byte) {
	t.Helper()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityModel pins the core semantics: bytes survive a crash only
// after File.Sync, and directory entries only after SyncDir.
func TestDurabilityModel(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")

	f, err := s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Content synced, entry not: the file vanishes at crash.
	s.Reboot()
	if _, err := s.ReadFile("/d/a"); err == nil {
		t.Fatal("entry survived crash without SyncDir")
	}

	f, _ = s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	writeAll(t, f, []byte("hello"))
	if err := s.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	// Entry synced, content not: the file survives empty.
	s.Reboot()
	if data, err := s.ReadFile("/d/a"); err != nil || len(data) != 0 {
		t.Fatalf("want empty durable file, got %q, %v", data, err)
	}

	f, _ = s.OpenFile("/d/a", os.O_WRONLY|os.O_APPEND, 0o644)
	writeAll(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte(" world")) // unsynced tail
	s.Reboot()
	if data, _ := s.ReadFile("/d/a"); string(data) != "hello" {
		t.Fatalf("durable image = %q, want %q", data, "hello")
	}
}

func TestRenameNeedsDirSync(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	f, _ := s.OpenFile("/d/tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	writeAll(t, f, []byte("x"))
	f.Sync()
	s.SyncDir("/d")

	if err := s.Rename("/d/tmp", "/d/final"); err != nil {
		t.Fatal(err)
	}
	s.Reboot() // no SyncDir: rename rolls back
	if _, err := s.ReadFile("/d/final"); err == nil {
		t.Fatal("rename survived crash without SyncDir")
	}
	if data, err := s.ReadFile("/d/tmp"); err != nil || string(data) != "x" {
		t.Fatalf("original entry lost: %q, %v", data, err)
	}

	s.Rename("/d/tmp", "/d/final")
	if err := s.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	s.Reboot()
	if data, err := s.ReadFile("/d/final"); err != nil || string(data) != "x" {
		t.Fatalf("synced rename lost: %q, %v", data, err)
	}
}

// TestEntryChangesPersistOneByOne pins the per-entry crash mode: between
// two directory fsyncs each entry change may persist without the ones
// before it — here a later rename without an earlier one — a rename moves
// both its names or neither, and a SyncDir leaves nothing for RebootKeeping
// to choose from.
func TestEntryChangesPersistOneByOne(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	for _, name := range []string{"/d/a.tmp", "/d/b.tmp"} {
		f, _ := s.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
		writeAll(t, f, []byte(name))
		f.Sync()
	}
	s.SyncDir("/d")
	s.Rename("/d/a.tmp", "/d/a")
	s.Rename("/d/b.tmp", "/d/b")
	if n := s.Unsynced("/d"); n != 2 {
		t.Fatalf("Unsynced = %d, want the two renames", n)
	}
	s.RebootKeeping(func(dir string, i, n int) bool { return dir == "/d" && i == n-1 })
	want := map[string]string{"/d/a.tmp": "/d/a.tmp", "/d/b": "/d/b.tmp"}
	for _, name := range []string{"/d/a", "/d/a.tmp", "/d/b", "/d/b.tmp"} {
		data, err := s.ReadFile(name)
		if w, ok := want[name]; ok != (err == nil) || string(data) != w {
			t.Errorf("%s after keeping only the later rename: %q, %v", name, data, err)
		}
	}
	if n := s.Unsynced("/d"); n != 0 {
		t.Errorf("Unsynced = %d after the reboot", n)
	}

	s.Rename("/d/a.tmp", "/d/a")
	s.SyncDir("/d")
	if n := s.Unsynced("/d"); n != 0 {
		t.Errorf("Unsynced = %d after SyncDir", n)
	}
	s.RebootKeeping(func(string, int, int) bool { return true })
	if data, err := s.ReadFile("/d/a"); err != nil || string(data) != "/d/a.tmp" {
		t.Errorf("synced rename after RebootKeeping: %q, %v", data, err)
	}
}

func TestTornWriteCrash(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	f, _ := s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	writeAll(t, f, []byte("head"))
	f.Sync()
	s.SyncDir("/d")

	// Crash at the next write: half the bytes land in the page cache,
	// none of them are durable.
	crashOp := s.Ops() + 1
	s.SetHook(CrashAt(crashOp))
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	if n != 4 {
		t.Fatalf("torn write applied %d bytes, want 4", n)
	}
	if !s.Crashed() {
		t.Fatal("sim not crashed")
	}
	// Everything fails until reboot.
	if _, err := s.ReadFile("/d/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	s.SetHook(nil)
	s.Reboot()
	if data, _ := s.ReadFile("/d/a"); string(data) != "head" {
		t.Fatalf("durable image = %q, want %q", data, "head")
	}
	// Pre-reboot handle is dead.
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write: %v", err)
	}
}

func TestInjectedErrorKeepsRunning(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	f, _ := s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	op := s.Ops() + 1
	s.SetHook(ErrAt(op, ErrNoSpace, 2))
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrNoSpace) || n != 2 {
		t.Fatalf("want short write 2 + ErrNoSpace, got %d, %v", n, err)
	}
	s.SetHook(nil)
	writeAll(t, f, []byte("gh")) // machine still alive; tail is torn
	if data, _ := s.ReadFile("/d/a"); string(data) != "abgh" {
		t.Fatalf("volatile image = %q, want %q", data, "abgh")
	}
}

func TestLyingSync(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	f, _ := s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	s.SyncDir("/d")
	writeAll(t, f, []byte("data"))
	s.SetHook(func(op Op) Fault {
		if op.Kind == OpSync {
			return Fault{LieSync: true}
		}
		return Fault{}
	})
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must report success: %v", err)
	}
	s.SetHook(nil)
	s.Reboot()
	if data, _ := s.ReadFile("/d/a"); len(data) != 0 {
		t.Fatalf("lied-about sync persisted %q", data)
	}
}

func TestTruncateAndReadDir(t *testing.T) {
	s := NewSim()
	mustMkdir(t, s, "/d")
	f, _ := s.OpenFile("/d/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	writeAll(t, f, []byte("0123456789"))
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("x")) // append lands at the new end
	if data, _ := s.ReadFile("/d/a"); string(data) != "0123x" {
		t.Fatalf("after truncate+append: %q", data)
	}
	s.CreateTemp("/d", "snap-*.tmp")
	entries, err := s.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "a" {
		t.Fatalf("ReadDir: %v", entries)
	}
}

// TestOSRoundTrip exercises the production implementation against a real
// temp dir so both FS implementations stay behaviorally aligned.
func TestOSRoundTrip(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	f, err := fsys.OpenFile(dir+"/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(dir+"/a", dir+"/b"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/b")
	if err != nil || string(data) != "he" {
		t.Fatalf("read back %q, %v", data, err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ReadDir: %v %v", entries, err)
	}
	if err := fsys.Remove(dir + "/b"); err != nil {
		t.Fatal(err)
	}
}

// TestReadAt pins the pread surface on both filesystems, used the way the
// store uses it: one handle appends, a second, read-only handle on the same
// file reads back what the first has written so far. EOF is reported the
// io.ReaderAt way, and the simulator serves the volatile image — unsynced
// bytes included, exactly like ReadFile — until a Reboot kills the handle
// and only the durable image remains.
func TestReadAt(t *testing.T) {
	sim := NewSim()
	mustMkdir(t, sim, "/d")
	for name, c := range map[string]struct {
		fsys FS
		dir  string
	}{"os": {OS(), t.TempDir()}, "sim": {sim, "/d"}} {
		w, err := c.fsys.OpenFile(c.dir+"/a", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, w, []byte("hello "))
		r, err := c.fsys.OpenFile(c.dir+"/a", os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, w, []byte("world")) // after the reader opened; never synced
		buf := make([]byte, 5)
		if n, err := r.ReadAt(buf, 6); n != 5 || err != nil || string(buf) != "world" {
			t.Errorf("%s: ReadAt(6) = %d %q %v", name, n, buf, err)
		}
		if n, err := r.ReadAt(buf, 8); n != 3 || err != io.EOF || string(buf[:n]) != "rld" {
			t.Errorf("%s: short ReadAt = %d %q %v, want 3 bytes and io.EOF", name, n, buf[:n], err)
		}
		if n, err := r.ReadAt(buf, 11); n != 0 || err != io.EOF {
			t.Errorf("%s: ReadAt at end = %d %v, want 0 and io.EOF", name, n, err)
		}
		w.Close()
		r.Close()
	}

	// Simulator only: durability. Sync "hello ", leave the rest volatile.
	w, _ := sim.OpenFile("/d/b", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	writeAll(t, w, []byte("hello "))
	w.Sync()
	sim.SyncDir("/d")
	writeAll(t, w, []byte("world"))
	f, err := sim.OpenFile("/d/b", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := sim.Ops()
	buf := make([]byte, 11)
	if n, err := f.ReadAt(buf, 0); n != 11 || err != nil {
		t.Fatalf("volatile image not served: %d %v", n, err)
	}
	if sim.Ops() != ops {
		t.Error("a read counted as a fault point")
	}
	sim.Reboot()
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrCrashed) {
		t.Errorf("pre-reboot handle still reads: %v", err)
	}
	g, err := sim.OpenFile("/d/b", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.ReadAt(buf, 0); n != 6 || err != io.EOF || string(buf[:n]) != "hello " {
		t.Errorf("after reboot ReadAt = %d %q %v, want the durable image", n, buf[:n], err)
	}
	g.Close()
	if _, err := g.ReadAt(buf, 0); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("closed handle still reads: %v", err)
	}
}
