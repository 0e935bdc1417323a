package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// The journal's two files, as reader, readAt and records name them.
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
	size, err := s.indexWAL()
	if err != nil {
		return err
	}
	f, err := s.fsys.OpenFile(s.walPath(s.gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.walLen < size {
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

// indexWAL scans the current WAL once: it sets s.walLen to the valid
// prefix's length, rebuilds s.walIdx from that prefix and returns the file's
// size. A torn tail is not an error — the prefix stops before it, which is
// all a ReadOnly store ever does about one. Valid records beyond the damage
// are: that is no torn append, and truncating would lose them.
func (s *Store) indexWAL() (size int64, err error) {
	data, err := s.readFileOrEmpty(s.walPath(s.gen))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	payloads, committed, err := scanRecords(data)
	if err != nil {
		return 0, fmt.Errorf("store: wal %d: %w", s.gen, err)
	}
	idx := make(map[string][]walRef)
	off := int64(0)
	for i, p := range payloads {
		// Only the event's head is decoded: type byte, then the user.
		user, _, err := readLenBytes(p[min(1, len(p)):])
		if err != nil {
			return 0, fmt.Errorf("store: wal %d record %d: %w", s.gen, i, err)
		}
		idx[string(user)] = append(idx[string(user)], walRef{off: off, n: uint32(len(p)), typ: EventType(p[0])})
		off += 8 + int64(len(p))
	}
	s.walIdx, s.walLen = idx, int64(committed)
	return int64(len(data)), nil
}

// indexJournal makes sure both offset indexes exist (caller holds s.mu).
// Segments are written via temp + rename and referenced only after a
// manifest commit, so any failure here is real corruption, never a torn
// write.
func (s *Store) indexJournal() error {
	if s.wal == nil && !s.opts.ReadOnly {
		return errClosed
	}
	if s.walIdx == nil { // ReadOnly: no openWAL ran
		if _, err := s.indexWAL(); err != nil {
			return err
		}
	}
	if s.segIdx != nil {
		return nil
	}
	if s.gen == 0 { // no segment yet
		s.segIdx = map[string]segRef{}
		return nil
	}
	f, err := s.reader(segFile)
	if err != nil {
		return err
	}
	s.segIdx, _, err = s.segIndex(f)
	return err
}

// segIndex returns the offset index of the current segment, read through f
// with one pread of its index frame, and the segment's byte size (caller
// holds s.mu).
func (s *Store) segIndex(f io.ReaderAt) (map[string]segRef, int64, error) {
	idx, size, err := readSegIndex(f, s.idxOff)
	if err != nil {
		return nil, 0, fmt.Errorf("store: segment %d index at %d: %w", s.gen, s.idxOff, err)
	}
	return idx, size, nil
}

// readSegIndex reads and verifies the index frame at off and returns the
// index and the segment's size, which ends with that frame.
func readSegIndex(f io.ReaderAt, off int64) (map[string]segRef, int64, error) {
	frame, err := readRecord(io.NewSectionReader(f, off, 8+maxRecordLen), nil)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the manifest names a frame here
	}
	if err != nil {
		return nil, 0, err
	}
	idx, err := decodeSegIndex(frame[8:], off)
	return idx, off + int64(len(frame)), err
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

// checkRecordUser refuses a profile payload whose user is not the one the
// index names for its offset.
func checkRecordUser(payload []byte, user string) error {
	got, _, err := readLenBytes(payload)
	if err == nil && string(got) != user {
		err = fmt.Errorf("record is %q's, the index names %q", got, user)
	}
	return err
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
		err = errors.New("checksum mismatch") // in the length field
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

// records reads and verifies one of the current files whole, for Load and
// compaction's replay (caller holds s.mu). A segment's records must parse to
// its index frame, each the user its index entry names; a WAL must parse up
// to its committed length (bytes past it can only be a poisoned write's
// remnants and are clamped away), except that ReadOnly mode tolerates a torn
// tail exactly the way recovery would.
func (s *Store) records(which int) ([][]byte, error) {
	path, strict := s.segPath(s.gen), true
	if which == walFile {
		path, strict = s.walPath(s.gen), !s.opts.ReadOnly
	}
	data, err := s.readFileOrEmpty(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if which == walFile && strict && int64(len(data)) > s.walLen {
		data = data[:s.walLen]
	}
	var idx map[string]segRef
	if which == segFile && s.idxOff != noIndex {
		if idx, _, err = readSegIndex(bytes.NewReader(data), s.idxOff); err == nil {
			data = data[:s.idxOff]
		}
	}
	var payloads [][]byte
	if err == nil {
		var committed int
		payloads, committed, err = scanRecords(data)
		if err == nil && strict && committed != len(data) {
			err = fmt.Errorf("truncated record at offset %d", committed)
		}
	}
	if err == nil && idx != nil {
		err = matchSegIndex(payloads, idx)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", filepath.Base(path), err)
	}
	return payloads, nil
}

// matchSegIndex requires that the records a segment scan found are the
// ones its index names. Both tile [0, idxOff), so a record at each entry's
// offset, of the entry's length and named as it says, is the whole
// correspondence.
func matchSegIndex(payloads [][]byte, idx map[string]segRef) error {
	off := int64(0)
	for _, p := range payloads {
		user, _, err := readLenBytes(p)
		if ref, ok := idx[string(user)]; err != nil || !ok || ref.off != off || int(ref.n) != len(p) {
			return fmt.Errorf("the record at offset %d is not the one the index names there", off)
		}
		off += 8 + int64(len(p))
	}
	return nil
}
