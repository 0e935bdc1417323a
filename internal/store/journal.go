package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"mmprofile/internal/faultfs"
)

// segRef locates one user's framed record in the segment: header offset and
// payload length.
type segRef struct {
	off int64
	n   uint32
}

// walRef locates one framed event in the current WAL.
type walRef struct {
	off int64
	n   uint32
	typ EventType
}

// The journal's two files, as reader and readAt name them.
const (
	segFile = iota
	walFile
)

// journalPath names the journal's file of generation gen. The 000 is the
// lane number an older release put in every name; keeping it keeps each
// directory written since readable as it is.
func (s *Store) journalPath(prefix string, gen uint64, suffix string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s000-%08d%s", prefix, gen, suffix))
}

func (s *Store) walPath(gen uint64) string { return s.journalPath(walPrefix, gen, ".log") }

func (s *Store) segPath(gen uint64) string { return s.journalPath(segPrefix, gen, ".db") }

// openWAL opens the current-generation log for appending, truncating any
// torn tail first and indexing the records before it. Caller holds s.mu (or
// is the constructor). The new directory entry is NOT synced here: Open and
// Checkpoint each follow with one SyncDir.
func (s *Store) openWAL() error {
	torn, err := s.indexWAL()
	if err != nil {
		return err
	}
	f, err := s.fsys.OpenFile(s.walPath(s.gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if torn {
		// Torn tail from a crash mid-append: chop it so the next append
		// starts at a record boundary — appending after garbage is what
		// used to turn one torn record into a whole-log loss on the
		// following reload.
		if err := f.Truncate(s.walLen); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.m.tornTails.Inc()
	}
	s.wal = f
	return nil
}

// indexWAL scans the current WAL once, decoding only each event's head
// (type byte, then the user): it sets s.walIdx and s.walLen to the valid
// prefix and reports whether a torn tail follows it. A WAL a crash kept
// from being created is empty. A torn tail is not an error — the prefix
// stops before it, which is all a ReadOnly store ever does about one. Nor
// is corruption left out of the prefix: valid records beyond the damage
// are no torn append, and truncating would lose them.
func (s *Store) indexWAL() (torn bool, err error) {
	s.walIdx, s.walLen = map[string][]walRef{}, 0
	err = s.readOwn(s.walPath(s.gen), func(r io.ReaderAt) (err error) {
		s.walLen, torn, err = scan(r, func(off int64, p []byte) error {
			user, _, err := readLenBytes(p[min(1, len(p)):])
			if err != nil {
				return fmt.Errorf("record at offset %d: %w", off, err)
			}
			s.walIdx[string(user)] = append(s.walIdx[string(user)], walRef{off: off, n: uint32(len(p)), typ: EventType(p[0])})
			return nil
		})
		if err != nil {
			err = fmt.Errorf("store: wal %d: %w", s.gen, err)
		}
		return err
	})
	return torn, err
}

// scanWAL streams the events of the current WAL's indexed prefix — up to
// walLen, which must be whole — through fn (caller holds s.mu, after
// indexJournal). fn's errors are returned as they are.
func (s *Store) scanWAL(fn func(off int64, ev Event) error) error {
	if s.walLen == 0 { // nothing to read, maybe not even a file
		return nil
	}
	f, err := s.reader(walFile)
	if err != nil {
		return err
	}
	var ferr error
	end, _, err := scan(io.NewSectionReader(f, 0, s.walLen), func(off int64, p []byte) error {
		ev, err := decodeEvent(p)
		if err != nil {
			return fmt.Errorf("record at offset %d: %w", off, err)
		}
		ferr = fn(off, ev)
		return ferr
	})
	if err == nil && end != s.walLen {
		err = fmt.Errorf("truncated record at offset %d", end)
	}
	if err != nil && err != ferr {
		err = fmt.Errorf("store: wal %d: %w", s.gen, err)
	}
	return err
}

// scanSegment streams the current segment's records up to its index
// frame, a frame at a time, handing fn each one decoded and its payload,
// which fn may use only during the call (caller holds s.mu, after
// indexJournal). Every record must be the one the index names at its
// offset, and the last must end where the index frame starts. fn's errors
// are returned as they are.
func (s *Store) scanSegment(fn func(rec ProfileRecord, payload []byte) error) error {
	if s.gen == 0 { // no segment yet
		return nil
	}
	f, err := s.reader(segFile)
	if err != nil {
		return err
	}
	var ferr error
	end, _, err := scan(io.NewSectionReader(f, 0, s.idxOff), func(off int64, p []byte) error {
		rec, err := decodeProfileRecord(p)
		if ref, ok := s.segIdx[rec.User]; err == nil && (!ok || ref.off != off || int(ref.n) != len(p)) {
			err = errors.New("not the record the index names there")
		}
		if err != nil {
			return fmt.Errorf("offset %d: %w", off, err)
		}
		ferr = fn(rec, p)
		return ferr
	})
	if err == nil && end != s.idxOff {
		err = fmt.Errorf("truncated record at offset %d", end)
	}
	if err != nil && err != ferr {
		err = fmt.Errorf("store: segment %d: %w", s.gen, err)
	}
	return err
}

// indexJournal makes sure both offset indexes exist (caller holds s.mu).
// Segments are written via temp + rename and referenced only after a
// manifest commit, so any failure here is real corruption, never a torn
// write.
func (s *Store) indexJournal() error {
	if s.wal == nil && !s.opts.ReadOnly {
		return errClosed
	}
	if s.walErr != nil {
		return s.walErr
	}
	return s.indexSegment()
}

// indexSegment decodes the current segment's index frame on first use,
// through a handle of its own, so that a closed store keeps no reader
// (caller holds s.mu).
func (s *Store) indexSegment() error {
	if s.segIdx != nil {
		return nil
	}
	if s.gen == 0 { // no segment yet
		s.segIdx = map[string]segRef{}
		return nil
	}
	f, err := s.fsys.OpenFile(s.segPath(s.gen), os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s.segIdx, s.segLen, err = s.segIndex(f)
	return err
}

// segIndex reads and verifies the current segment's index frame through f,
// with one pread, and returns the index and the segment's size, which ends
// with that frame (caller holds s.mu).
func (s *Store) segIndex(f io.ReaderAt) (map[string]segRef, int64, error) {
	frame, err := readRecord(io.NewSectionReader(f, s.idxOff, 8+maxRecordLen), nil)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the manifest names a frame here
	}
	var idx map[string]segRef
	if err == nil {
		idx, err = decodeSegIndex(frame[8:], s.idxOff)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: segment %d index at %d: %w", s.gen, s.idxOff, err)
	}
	return idx, s.idxOff + int64(len(frame)), nil
}

// A segment's index frame is the CRC32-framed record after its profile
// records: a uvarint entry count, then per record in segment order the
// user (uvarint length + bytes) and the record's payload length (uvarint).
// Offsets follow from the order, so an entry is the id plus two or three
// bytes.

// appendSegIndexEntry appends one record's entry to an index under
// construction.
func appendSegIndexEntry(entries []byte, user string, n uint32) []byte {
	return binary.AppendUvarint(appendLenBytes(entries, user), uint64(n))
}

// appendSegIndex appends the index payload for count entries.
func appendSegIndex(buf []byte, count int, entries []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(count)), entries...)
}

// decodeSegIndex parses an index payload for a segment whose records end
// at end. The lengths must tile [0, end) exactly, each within
// maxRecordLen, and no user may repeat; anything else is corruption. The
// claimed count is bounded by the payload's length (an entry is at least
// two bytes) before anything is allocated for it.
func decodeSegIndex(p []byte, end int64) (map[string]segRef, error) {
	count, k := binary.Uvarint(p)
	if k <= 0 || count > uint64(len(p)-k)/2 {
		return nil, errors.New("implausible index entry count")
	}
	p = p[k:]
	idx := make(map[string]segRef, count)
	var off int64
	for i := uint64(0); i < count; i++ {
		user, rest, err := readLenBytes(p)
		if err != nil {
			return nil, fmt.Errorf("index entry %d: %w", i, err)
		}
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > maxRecordLen {
			return nil, fmt.Errorf("index entry %d: bad record length", i)
		}
		if _, dup := idx[string(user)]; dup {
			return nil, fmt.Errorf("index entry %d: %q named twice", i, user)
		}
		idx[string(user)] = segRef{off: off, n: uint32(n)}
		off += 8 + int64(n)
		p = rest[k:]
	}
	if len(p) != 0 {
		return nil, errors.New("trailing index bytes")
	}
	if off != end {
		return nil, fmt.Errorf("index records cover %d bytes, the index starts at %d", off, end)
	}
	return idx, nil
}

// reader returns the read handle on the current segment or WAL, opening it
// on first use (caller holds s.mu).
func (s *Store) reader(which int) (faultfs.File, error) {
	if s.rd[which] == nil {
		path := s.segPath(s.gen)
		if which == walFile {
			path = s.walPath(s.gen)
		}
		f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.rd[which] = f
	}
	return s.rd[which], nil
}

// readOwn hands fn a read handle of its own on path and closes it after,
// so a closed store keeps no reader. A missing file is not read and not an
// error.
func (s *Store) readOwn(path string, fn func(io.ReaderAt) error) error {
	f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return fn(f)
}

// readAt preads the record of n payload bytes framed at off in the current
// segment or WAL and verifies it (caller holds s.mu). It returns the frame,
// payload at [8:], in buf when that is large enough.
func (s *Store) readAt(which int, off int64, n uint32, buf []byte) ([]byte, error) {
	f, err := s.reader(which)
	if err != nil {
		return nil, err
	}
	frame, err := readRecord(io.NewSectionReader(f, off, 8+int64(n)), buf)
	if err == nil && len(frame) != 8+int(n) {
		err = errChecksum // in the length field
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s offset %d: %w", f.Name(), off, err)
	}
	return frame, nil
}

// closeReaders drops the read handles (caller holds s.mu): at Close, and at
// a checkpoint flip before the files they name are removed.
func (s *Store) closeReaders() {
	for i, f := range s.rd {
		if f != nil {
			f.Close()
			s.rd[i] = nil
		}
	}
}
