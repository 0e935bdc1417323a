// Package faultfs abstracts the filesystem surface the persistence layer
// touches — file opens, appends, fsyncs, renames, removals, and directory
// syncs — behind an interface small enough to substitute a fault-injecting
// simulator for the real OS (DESIGN.md §10).
//
// Two implementations ship:
//
//   - OS() returns the production filesystem. Its File values are literal
//     *os.File handles — the store's hot path pays one interface dispatch
//     and nothing else.
//   - NewSim() returns an in-memory filesystem that models the page cache:
//     every byte written is volatile until the file is fsynced, every
//     create/rename/remove is volatile until the parent directory is
//     fsynced, and Reboot() discards all volatile state — exactly what a
//     power cut does to ext4. RebootKeeping() instead lets any subset of
//     the unsynced entry changes survive, a later one without an earlier
//     one. A hook can fail, tear, or crash any operation at any syscall
//     boundary (sim.go).
//
// The split is what makes crash consistency testable: the store's
// durability claims are proven by killing a Sim at every operation index
// and asserting recovery (internal/store's crash-matrix test), while
// production code keeps running on bare os calls.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the mutable-file surface the store needs. *os.File implements it
// directly.
type File interface {
	io.Writer
	io.Closer
	// ReaderAt is how the store hydrates one record without reading the
	// file around it (pread). Reads are not fault points.
	io.ReaderAt
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file's contents (and its own metadata) to stable
	// storage. It does not persist the directory entry — SyncDir does.
	Sync() error
	// Truncate changes the file's size (used to chop a torn WAL tail).
	Truncate(size int64) error
}

// FS is the directory-store syscall surface: everything internal/store
// does to the world.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// OpenFile opens name with os.OpenFile semantics for the flag subset
	// the store uses (O_CREATE, O_WRONLY, O_APPEND, O_TRUNC, O_RDONLY).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a unique temporary file in dir (os.CreateTemp
	// pattern rules).
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, persisting the entries (creates,
	// renames, removes) performed in it. POSIX durability for a rename is
	// file-sync *then* dir-sync; forgetting the latter is precisely the
	// class of bug the simulator exists to catch.
	SyncDir(dir string) error
}

// osFS is the production filesystem.
type osFS struct{}

// OS returns the real filesystem. Files returned by it are *os.File.
func OS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
