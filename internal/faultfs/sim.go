package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Errors the simulator injects or synthesizes.
var (
	// ErrCrashed is returned by every operation after a simulated power
	// cut (Fault.Crash), and by operations on handles that predate a
	// Reboot.
	ErrCrashed = errors.New("faultfs: simulated crash")
	// ErrInjected is the default error for Fault{Err: ...} injections.
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrNoSpace simulates ENOSPC.
	ErrNoSpace = errors.New("faultfs: no space left on device")
)

// OpKind names the syscall-boundary operation classes the simulator
// intercepts. Read-only operations are not fault points: a crash at a read
// is indistinguishable from a crash at the next mutation.
type OpKind string

const (
	OpCreate   OpKind = "create"   // OpenFile with O_CREATE on a missing file, CreateTemp
	OpWrite    OpKind = "write"    // File.Write
	OpSync     OpKind = "sync"     // File.Sync
	OpSyncDir  OpKind = "syncdir"  // FS.SyncDir
	OpRename   OpKind = "rename"   // FS.Rename
	OpRemove   OpKind = "remove"   // FS.Remove
	OpTruncate OpKind = "truncate" // File.Truncate
	OpMkdir    OpKind = "mkdir"    // FS.MkdirAll
)

// Op describes one mutating operation about to execute.
type Op struct {
	N    int // 1-based global operation index
	Kind OpKind
	Path string
	Len  int // byte count for writes, 0 otherwise
}

// Fault is a hook's verdict for one operation.
type Fault struct {
	// Err fails the operation with this error. For writes, Partial bytes
	// are applied first (a short write).
	Err error
	// Partial is how many leading bytes of a write take effect before the
	// failure or crash — a torn write.
	Partial int
	// Crash power-cuts the process at this operation: the op (beyond
	// Partial, for writes) does not happen, it returns ErrCrashed, and
	// every later operation fails with ErrCrashed until Reboot.
	Crash bool
	// LieSync makes a sync/syncdir report success while persisting
	// nothing — a drive that acknowledges before hitting platters.
	LieSync bool
}

// Hook inspects each mutating operation and may inject a fault. Called
// with the simulator's lock held; it must not call back into the Sim.
type Hook func(Op) Fault

// CrashAt returns a hook that tears the n-th operation: a write applies
// half its bytes, anything else doesn't happen, and the simulated machine
// is dead until Reboot. This is the crash-matrix workhorse.
func CrashAt(n int) Hook {
	return func(op Op) Fault {
		if op.N != n {
			return Fault{}
		}
		return Fault{Crash: true, Partial: op.Len / 2}
	}
}

// ErrAt returns a hook failing the n-th operation with err (short-writing
// partial bytes if it is a write); the simulated machine keeps running.
func ErrAt(n int, err error, partial int) Hook {
	return func(op Op) Fault {
		if op.N != n {
			return Fault{}
		}
		return Fault{Err: err, Partial: partial}
	}
}

// simFile is one inode: volatile contents (the page cache) plus the
// durable image as of the last acknowledged fsync.
type simFile struct {
	data    []byte
	durable []byte
}

// simDir is one directory: the live entry table, the durable entry table
// as of the last acknowledged directory fsync, and the entry changes made
// since, in order. Entries map base names to inodes; an inode can be
// reachable from a durable entry under one name and a volatile entry under
// another (mid-rename).
type simDir struct {
	entries map[string]*simFile
	durable map[string]*simFile
	pending [][]entryEdit // one change each: a create, a removal, or a rename's two names
}

// entryEdit points name at file, or removes it when file is nil.
type entryEdit struct {
	name string
	file *simFile
}

// change applies one entry change to the live table and queues it until
// the next SyncDir.
func (d *simDir) change(edits ...entryEdit) {
	for _, e := range edits {
		if e.file == nil {
			delete(d.entries, e.name)
		} else {
			d.entries[e.name] = e.file
		}
	}
	d.pending = append(d.pending, edits)
}

// Sim is an in-memory filesystem with explicit durability: writes land in
// the volatile image until File.Sync, namespace changes land in the
// volatile directory table until SyncDir, and Reboot discards everything
// volatile — or, with RebootKeeping, keeps any chosen subset of the
// unsynced namespace changes. Safe for concurrent use.
type Sim struct {
	mu      sync.Mutex
	hook    Hook
	ops     int
	crashed bool
	epoch   int // bumped by Reboot; stale handles die
	tmpSeq  int
	dirs    map[string]*simDir
}

// NewSim returns an empty simulated filesystem with no faults armed.
func NewSim() *Sim {
	return &Sim{dirs: map[string]*simDir{}}
}

// SetHook arms (or, with nil, disarms) the fault hook.
func (s *Sim) SetHook(h Hook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// Ops returns how many mutating operations have executed (including the
// one that crashed, excluding operations refused post-crash).
func (s *Sim) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Crashed reports whether a Fault.Crash has fired since the last Reboot.
func (s *Sim) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Reboot models power-on after a crash (or a clean reboot): every file
// reverts to its durable image, every directory to its durable entry
// table, all pre-reboot handles become invalid, and the machine runs
// again. The operation counter and hook are preserved so callers can keep
// counting across incarnations; most tests disarm the hook first.
func (s *Sim) Reboot() { s.RebootKeeping(nil) }

// RebootKeeping is Reboot in the per-entry crash mode. Nothing orders two
// directory entry changes unless a SyncDir lies between them, so each
// unsynced change — a create, a removal, a rename with both its names —
// may reach the disk without the ones made before it. keep is asked about
// each directory's unsynced changes in the order they were made (the i-th
// of n); those it accepts persist over the durable table, the rest are
// lost. A nil keep accepts none, which is Reboot. keep is called with the
// simulator's lock held and must not call back into the Sim.
func (s *Sim) RebootKeeping(keep func(dir string, i, n int) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = false
	s.epoch++
	for path, d := range s.dirs {
		for i, edits := range d.pending {
			if keep == nil || !keep(path, i, len(d.pending)) {
				continue
			}
			for _, e := range edits {
				if e.file == nil {
					delete(d.durable, e.name)
				} else {
					d.durable[e.name] = e.file
				}
			}
		}
		d.pending = nil
		d.entries = make(map[string]*simFile, len(d.durable))
		for name, f := range d.durable {
			d.entries[name] = f
			f.data = append([]byte(nil), f.durable...)
		}
	}
}

// Unsynced returns how many entry changes dir holds that no SyncDir has
// persisted: the n RebootKeeping would offer.
func (s *Sim) Unsynced(dir string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.dir(dir); d != nil {
		return len(d.pending)
	}
	return 0
}

// step counts a mutating operation and applies the hook's verdict.
// Returns the fault to apply and an error that, when non-nil, must abort
// the operation (after the write's Partial bytes). Caller holds s.mu.
func (s *Sim) step(kind OpKind, path string, n int) (Fault, error) {
	if s.crashed {
		return Fault{}, ErrCrashed
	}
	s.ops++
	if s.hook == nil {
		return Fault{}, nil
	}
	f := s.hook(Op{N: s.ops, Kind: kind, Path: path, Len: n})
	if f.Crash {
		s.crashed = true
		return f, ErrCrashed
	}
	if f.Err != nil {
		return f, f.Err
	}
	return f, nil
}

func (s *Sim) dir(path string) *simDir {
	d, ok := s.dirs[filepath.Clean(path)]
	if !ok {
		return nil
	}
	return d
}

// lookup resolves a file path to its directory table and base name.
func (s *Sim) lookup(name string) (*simDir, string, *simFile) {
	d := s.dir(filepath.Dir(name))
	if d == nil {
		return nil, "", nil
	}
	base := filepath.Base(name)
	return d, base, d.entries[base]
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

// --- FS interface ---

func (s *Sim) MkdirAll(path string, perm fs.FileMode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	clean := filepath.Clean(path)
	if s.dirs[clean] != nil {
		if s.crashed {
			return ErrCrashed
		}
		return nil // exists: os.MkdirAll is a no-op, not a mutation
	}
	if _, err := s.step(OpMkdir, clean, 0); err != nil {
		return err
	}
	// Directory creation is modeled as immediately durable: the store
	// creates its directory once at first boot and the interesting crash
	// surface is entirely inside it.
	s.dirs[clean] = &simDir{entries: map[string]*simFile{}, durable: map[string]*simFile{}}
	return nil
}

func (s *Sim) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	d, base, f := s.lookup(name)
	if d == nil {
		return nil, notExist("open", name)
	}
	switch {
	case f == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case f == nil:
		if _, err := s.step(OpCreate, name, 0); err != nil {
			return nil, err
		}
		f = &simFile{}
		d.change(entryEdit{base, f})
	case flag&os.O_TRUNC != 0:
		if _, err := s.step(OpTruncate, name, 0); err != nil {
			return nil, err
		}
		f.data = nil
	}
	return &simHandle{sim: s, file: f, name: name, epoch: s.epoch, app: flag&os.O_APPEND != 0}, nil
}

func (s *Sim) CreateTemp(dir, pattern string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	d := s.dir(dir)
	if d == nil {
		return nil, notExist("createtemp", dir)
	}
	s.tmpSeq++
	// os.CreateTemp semantics: the last '*' in the pattern is replaced by
	// the unique suffix (deterministic here, for reproducible matrices).
	base := pattern + strconv.Itoa(s.tmpSeq)
	if j := strings.LastIndexByte(pattern, '*'); j >= 0 {
		base = pattern[:j] + strconv.Itoa(s.tmpSeq) + pattern[j+1:]
	}
	name := filepath.Join(dir, base)
	if _, err := s.step(OpCreate, name, 0); err != nil {
		return nil, err
	}
	f := &simFile{}
	d.change(entryEdit{base, f})
	return &simHandle{sim: s, file: f, name: name, epoch: s.epoch}, nil
}

func (s *Sim) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	_, _, f := s.lookup(name)
	if f == nil {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), f.data...), nil
}

func (s *Sim) ReadDir(name string) ([]fs.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	d := s.dir(name)
	if d == nil {
		return nil, notExist("open", name)
	}
	names := make([]string, 0, len(d.entries))
	for n := range d.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, n := range names {
		out[i] = simDirEntry{name: n, size: int64(len(d.entries[n].data))}
	}
	return out, nil
}

func (s *Sim) Rename(oldpath, newpath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	od, obase, f := s.lookup(oldpath)
	nd := s.dir(filepath.Dir(newpath))
	if s.crashed {
		return ErrCrashed
	}
	if f == nil || nd == nil {
		return notExist("rename", oldpath)
	}
	if _, err := s.step(OpRename, newpath, 0); err != nil {
		return err
	}
	gone, named := entryEdit{obase, nil}, entryEdit{filepath.Base(newpath), f}
	if od == nd {
		od.change(gone, named)
	} else {
		od.change(gone)
		nd.change(named)
	}
	return nil
}

func (s *Sim) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, base, f := s.lookup(name)
	if s.crashed {
		return ErrCrashed
	}
	if f == nil {
		return notExist("remove", name)
	}
	if _, err := s.step(OpRemove, name, 0); err != nil {
		return err
	}
	d.change(entryEdit{base, nil})
	return nil
}

func (s *Sim) SyncDir(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dir(dir)
	if s.crashed {
		return ErrCrashed
	}
	if d == nil {
		return notExist("syncdir", dir)
	}
	f, err := s.step(OpSyncDir, dir, 0)
	if err != nil {
		return err
	}
	if f.LieSync {
		return nil
	}
	d.durable = make(map[string]*simFile, len(d.entries))
	for n, file := range d.entries {
		d.durable[n] = file
	}
	d.pending = nil
	return nil
}

// --- File handle ---

type simHandle struct {
	sim    *Sim
	file   *simFile
	name   string
	epoch  int
	app    bool
	off    int64
	closed bool
}

func (h *simHandle) check() error {
	if h.sim.crashed || h.epoch != h.sim.epoch {
		return ErrCrashed
	}
	if h.closed {
		return fs.ErrClosed
	}
	return nil
}

func (h *simHandle) Write(p []byte) (int, error) {
	h.sim.mu.Lock()
	defer h.sim.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	f, err := h.sim.step(OpWrite, h.name, len(p))
	apply := p
	if err != nil {
		if f.Partial > len(p) {
			f.Partial = len(p)
		}
		apply = p[:f.Partial]
	}
	if h.app {
		h.off = int64(len(h.file.data))
	}
	end := h.off + int64(len(apply))
	for int64(len(h.file.data)) < end {
		h.file.data = append(h.file.data, 0)
	}
	copy(h.file.data[h.off:end], apply)
	h.off = end
	if err != nil {
		return len(apply), err
	}
	return len(p), nil
}

// ReadAt serves the volatile image, exactly as ReadFile does: what the
// page cache holds, synced or not. Like every read it is not a fault
// point and does not count as an operation.
func (h *simHandle) ReadAt(p []byte, off int64) (int, error) {
	h.sim.mu.Lock()
	defer h.sim.mu.Unlock()
	if err := h.check(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("faultfs: read %s: negative offset", h.name)
	}
	if off >= int64(len(h.file.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.file.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *simHandle) Sync() error {
	h.sim.mu.Lock()
	defer h.sim.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	f, err := h.sim.step(OpSync, h.name, 0)
	if err != nil {
		return err
	}
	if f.LieSync {
		return nil
	}
	h.file.durable = append([]byte(nil), h.file.data...)
	return nil
}

func (h *simHandle) Truncate(size int64) error {
	h.sim.mu.Lock()
	defer h.sim.mu.Unlock()
	if err := h.check(); err != nil {
		return err
	}
	if _, err := h.sim.step(OpTruncate, h.name, 0); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("faultfs: truncate %s: negative size", h.name)
	}
	for int64(len(h.file.data)) < size {
		h.file.data = append(h.file.data, 0)
	}
	h.file.data = h.file.data[:size]
	if h.off > size {
		h.off = size
	}
	return nil
}

func (h *simHandle) Close() error {
	h.sim.mu.Lock()
	defer h.sim.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	if h.sim.crashed || h.epoch != h.sim.epoch {
		return ErrCrashed
	}
	return nil
}

func (h *simHandle) Name() string { return h.name }

// --- DirEntry ---

type simDirEntry struct {
	name string
	size int64
}

func (e simDirEntry) Name() string               { return e.name }
func (e simDirEntry) IsDir() bool                { return false }
func (e simDirEntry) Type() fs.FileMode          { return 0 }
func (e simDirEntry) Info() (fs.FileInfo, error) { return simFileInfo(e), nil }

type simFileInfo simDirEntry

func (i simFileInfo) Name() string       { return i.name }
func (i simFileInfo) Size() int64        { return i.size }
func (i simFileInfo) Mode() fs.FileMode  { return 0o644 }
func (i simFileInfo) ModTime() time.Time { return time.Time{} }
func (i simFileInfo) IsDir() bool        { return false }
func (i simFileInfo) Sys() any           { return nil }
