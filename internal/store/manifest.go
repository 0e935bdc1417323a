package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"mmprofile/internal/faultfs"
)

// The manifest is the commit point of the layout: a single framed record
// naming the journal's current generation and, from version 2, where that
// generation's segment keeps its offset index. Recovery trusts only files
// the manifest references, so checkpoints can stage new segments freely —
// nothing becomes authoritative until the one atomic MANIFEST rename lands,
// and everything unreferenced is removable garbage. The epoch counts
// manifest commits, for inspection tooling. The format names a list of
// lanes; this release writes one, and folds a directory that names more
// (fold.go).

const (
	manifestName = "MANIFEST"
	// maxLanes bounds the manifest's claimed lane count; anything larger
	// is corruption.
	maxLanes = 1024
	// noIndex is the index offset of generation 0, which has no segment,
	// and of a segment an older release wrote without an index frame.
	noIndex = -1
)

type manifest struct {
	epoch uint64
	gens  []uint64 // current generation per lane, indexed by lane id
	idx   []int64  // where each lane's segment index frame starts, or noIndex
}

// encodeManifest writes version 2 naming one lane: its generation, then the
// index offset plus one (0 for noIndex).
func encodeManifest(epoch, gen uint64, idxOff int64) []byte {
	payload := []byte{'M', 'M', 'L', 'N', 2}
	payload = binary.AppendUvarint(payload, epoch)
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendUvarint(payload, gen)
	return binary.AppendUvarint(payload, uint64(idxOff+1))
}

// decodeManifest reads versions 1 and 2 with any lane count; a version-1
// manifest names no index.
func decodeManifest(payload []byte) (manifest, error) {
	if len(payload) < 5 || string(payload[:4]) != "MMLN" {
		return manifest{}, fmt.Errorf("bad manifest magic")
	}
	version := payload[4]
	if version != 1 && version != 2 {
		return manifest{}, fmt.Errorf("unsupported manifest version %d", version)
	}
	rest := payload[5:]
	epoch, k := binary.Uvarint(rest)
	if k <= 0 {
		return manifest{}, fmt.Errorf("truncated manifest epoch")
	}
	rest = rest[k:]
	n, k := binary.Uvarint(rest)
	if k <= 0 {
		return manifest{}, fmt.Errorf("truncated manifest lane count")
	}
	rest = rest[k:]
	if n == 0 || n > maxLanes {
		return manifest{}, fmt.Errorf("implausible lane count %d", n)
	}
	mf := manifest{epoch: epoch, gens: make([]uint64, n), idx: make([]int64, n)}
	for i := range mf.gens {
		g, k := binary.Uvarint(rest)
		if k <= 0 {
			return manifest{}, fmt.Errorf("truncated manifest generation %d", i)
		}
		mf.gens[i], mf.idx[i] = g, noIndex
		rest = rest[k:]
		if version == 1 {
			continue
		}
		at, k := binary.Uvarint(rest)
		if k <= 0 || at > math.MaxInt64 {
			return manifest{}, fmt.Errorf("bad manifest index offset %d", i)
		}
		mf.idx[i] = int64(at) - 1
		rest = rest[k:]
	}
	if len(rest) != 0 {
		return manifest{}, fmt.Errorf("trailing manifest bytes")
	}
	return mf, nil
}

// readManifest loads dir's MANIFEST. found is false when none exists. The
// manifest is written atomically (temp + fsync + rename), so a torn or
// corrupt one is real damage and fails the open instead of silently
// falling back a generation.
func readManifest(fsys faultfs.FS, dir string) (manifest, bool, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest: %w", err)
	}
	payloads, committed, err := scanRecords(data)
	if err == nil && (len(payloads) != 1 || committed != len(data)) {
		err = fmt.Errorf("malformed framing")
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest: %w", err)
	}
	mf, err := decodeManifest(payloads[0])
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest: %w", err)
	}
	return mf, true, nil
}

// writeManifest atomically publishes a new manifest naming generation gen,
// its segment's index frame at idxOff: temp file + fsync + rename +
// directory fsync. The rename is the commit point for every layout change
// — a segment flip and its WAL swap, or a fold, become visible to recovery
// all at once or not at all, which is exactly what the crash matrices
// exercise by killing the store between the renames.
func (s *Store) writeManifest(epoch, gen uint64, idxOff int64) error {
	tmp, err := s.fsys.CreateTemp(s.dir, "manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer s.fsys.Remove(tmp.Name()) // no-op after successful rename
	if err := writeRecord(tmp, encodeManifest(epoch, gen, idxOff)); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fsys.Rename(tmp.Name(), filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// cleanStrays removes files the manifest does not reference: stale or
// uncommitted generations, the lanes a fold replaced, and temp files from
// crashed checkpoints and folds. Removal is best-effort — an unreferenced
// file is harmless until the next cleanup — but the
// directory sync after a successful pass keeps crash-looped checkpoints
// from accumulating garbage. Caller holds ckptMu (or is the constructor).
func (s *Store) cleanStrays() {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true, filepath.Base(s.walPath(s.gen)): true}
	if s.gen > 0 {
		live[filepath.Base(s.segPath(s.gen))] = true
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		if live[name] {
			continue
		}
		stale := strings.HasSuffix(name, ".tmp") || laneFile(name, walPrefix, ".log") || laneFile(name, segPrefix, ".db")
		if stale && s.fsys.Remove(filepath.Join(s.dir, name)) == nil {
			removed = true
		}
	}
	if removed {
		_ = s.fsys.SyncDir(s.dir) // best-effort: stray files are harmless
	}
}

// detectLegacy refuses a manifest-less directory that holds the
// pre-manifest layout: snap-<seq>.db and wal-<seq>.log, no lane component
// in the name. Nothing reads that layout any more, and initializing such a
// directory as a fresh store would discard a journal an earlier release
// acknowledged, so the open fails before any file is written or removed.
func detectLegacy(fsys faultfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if seqFile(e.Name(), walPrefix, ".log") || seqFile(e.Name(), "snap-", ".db") {
			return fmt.Errorf("store: %s holds the pre-manifest layout (%s, no %s), which this version does not read; open it once with a release that migrates it",
				dir, e.Name(), manifestName)
		}
	}
	return nil
}

// laneFile reports whether name is a lane-qualified file name
// (wal-003-00000042.log, seg-003-00000042.db). Pre-manifest names
// (wal-00000042.log) have no lane part and do not match.
func laneFile(name, prefix, suffix string) bool {
	mid, ok := strings.CutPrefix(name, prefix)
	id, rest, dash := strings.Cut(mid, "-")
	return ok && dash && seqFile(id, "", "") && seqFile(rest, "", suffix)
}

// seqFile reports whether name is prefix + decimal sequence + suffix.
func seqFile(name, prefix, suffix string) bool {
	mid, ok := strings.CutPrefix(name, prefix)
	if ok {
		mid, ok = strings.CutSuffix(mid, suffix)
	}
	_, err := strconv.ParseUint(mid, 10, 64)
	return ok && err == nil
}
