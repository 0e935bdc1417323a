package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mmprofile/internal/faultfs"
)

// The manifest is the commit point of the layout: a single framed record
// naming the journal's current generation and where that generation's
// segment keeps its offset index. Recovery trusts only files the manifest
// references, so checkpoints can stage new segments freely — nothing
// becomes authoritative until the one atomic MANIFEST rename lands, and
// everything unreferenced is removable garbage. The epoch counts manifest
// commits, for inspection tooling.

const (
	manifestName = "MANIFEST"
	// noIndex is the index offset of generation 0, which has no segment.
	noIndex = -1
)

type manifest struct {
	epoch uint64
	gen   uint64 // the journal's current generation
	idx   int64  // where the generation's segment index frame starts, or noIndex
}

// manifestSize bounds a manifest payload: magic, version, four uvarints.
const manifestSize = 5 + 4*binary.MaxVarintLen64

// appendManifest appends version 2: the epoch, a lane count of 1, the
// generation, and the index offset plus one (0 for noIndex).
func appendManifest(buf []byte, epoch, gen uint64, idxOff int64) []byte {
	payload := append(buf, 'M', 'M', 'L', 'N', 2)
	payload = binary.AppendUvarint(payload, epoch)
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendUvarint(payload, gen)
	return binary.AppendUvarint(payload, uint64(idxOff+1))
}

// decodeManifest reads exactly what appendManifest writes and refuses
// anything else. An older release's layout — version 1, whose segments have
// no index frame, several WAL lanes, or a segment without an index — is
// refused by name, so Open fails before it touches the directory.
func decodeManifest(payload []byte) (manifest, error) {
	if len(payload) < 5 || string(payload[:4]) != "MMLN" {
		return manifest{}, fmt.Errorf("bad manifest magic")
	}
	if v := payload[4]; v != 2 {
		if v == 1 {
			return manifest{}, olderLayout("manifest version 1")
		}
		return manifest{}, fmt.Errorf("unsupported manifest version %d", v)
	}
	var f [4]uint64 // epoch, lane count, generation, index offset + 1
	rest := payload[5:]
	for i := range f {
		var k int
		f[i], k = binary.Uvarint(rest)
		if k <= 0 || k != len(binary.AppendUvarint(nil, f[i])) {
			return manifest{}, fmt.Errorf("bad manifest field %d", i)
		}
		rest = rest[k:]
	}
	mf := manifest{epoch: f[0], gen: f[2], idx: int64(f[3]) - 1}
	switch {
	case f[1] != 1:
		return manifest{}, olderLayout(fmt.Sprintf("%d WAL lanes", f[1]))
	case len(rest) != 0:
		return manifest{}, fmt.Errorf("trailing manifest bytes")
	case f[3] > math.MaxInt64:
		return manifest{}, fmt.Errorf("bad manifest index offset %d", f[3])
	case mf.gen > 0 && mf.idx == noIndex:
		return manifest{}, olderLayout(fmt.Sprintf("generation %d without a segment index", mf.gen))
	case mf.gen == 0 && mf.idx != noIndex:
		return manifest{}, fmt.Errorf("generation 0 names a segment index")
	}
	return mf, nil
}

// olderLayout is the refusal of a layout an older release wrote.
func olderLayout(what string) error {
	return fmt.Errorf("%s: an older release's layout, which this version does not read; open it once with a release that rewrites it as one journal", what)
}

// readManifest loads dir's MANIFEST. found is false when none exists. The
// manifest is written atomically (temp + fsync + rename), so a torn or
// corrupt one is real damage and fails the open instead of silently
// falling back a generation.
func readManifest(fsys faultfs.FS, dir string) (manifest, bool, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, manifestName), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest: %w", err)
	}
	defer f.Close()
	var mf manifest
	n := 0
	_, torn, err := scan(f, func(_ int64, p []byte) (err error) {
		n++
		mf, err = decodeManifest(p)
		return err
	})
	if err == nil && (n != 1 || torn) {
		err = fmt.Errorf("malformed framing")
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("store: %s: %w", f.Name(), err)
	}
	return mf, true, nil
}

// writeManifest atomically publishes a new manifest naming generation gen,
// its segment's index frame at idxOff: temp file + fsync + rename +
// directory fsync. The rename is the commit point for every layout change
// — a segment flip and its WAL swap become visible to recovery all at once
// or not at all, which is exactly what the crash matrices exercise by
// killing the store between the renames.
func (s *Store) writeManifest(epoch, gen uint64, idxOff int64) error {
	tmp, err := s.fsys.CreateTemp(s.dir, "manifest-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer s.fsys.Remove(tmp.Name()) // no-op after successful rename
	if err := writeFrame(tmp, appendManifest(newFrame(manifestSize), epoch, gen, idxOff)); err != nil {
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
// uncommitted generations, temp files from crashed checkpoints, and any
// other lane-qualified file — an older release that rewrote a laned
// directory as one journal may have crashed before its own sweep. Removal
// is best-effort — an unreferenced file is harmless until the next cleanup
// — but the directory sync after a successful pass keeps crash-looped
// checkpoints from accumulating garbage. Caller holds ckptMu (or is the
// constructor).
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
