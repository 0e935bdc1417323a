package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"mmprofile/internal/faultfs"
)

// lane is one shard of the journal (DESIGN.md §14). Users hash to exactly
// one lane, so per-user event order survives the sharding even though
// lanes append, fsync, and checkpoint independently: each lane owns its
// WAL handle, committed byte length, torn-tail repair, write-path poison,
// offset index, and durability watermark. Cross-lane coordination
// happens in exactly two places — the group-commit leader (Store.leadSync
// fsyncs every lane with unacknowledged records in one pass) and the
// checkpoint (one manifest rename commits all lane generations at once).
type lane struct {
	id int

	// mu guards the lane's write path: the WAL handle, the committed byte
	// length, the record count, and the offset index.
	mu     sync.Mutex
	gen    uint64
	wal    faultfs.File
	walLen int64  // committed bytes in the current WAL (resets per generation)
	recs   uint64 // records ever written to this lane (monotone across generations)
	failed error  // sticky write-path failure; reopen repairs

	// Offset index (DESIGN.md §14): where each user's records sit in the
	// current generation's files, so a cold profile costs index entries and
	// no payload bytes. segIdx is decoded on first use (nil until then) from
	// the index frame the segment ends with — at idxOff, which the manifest
	// commits — or, for a segment without one, built by one streaming pass
	// over its records; walIdx by the scan that opens the WAL — in a
	// ReadOnly store on first use, as tolerant of a torn tail — and grows
	// with every append. A checkpoint flip installs the offsets it wrote,
	// starts an empty walIdx and closes the read handles, so nothing ever
	// reads a removed generation. walIdx's keys are the lane's dirty users —
	// those with events no segment holds yet — whether this process appended
	// the events or recovered them: there is no other record of dirtiness.
	rd     [2]faultfs.File // read handles, by segFile / walFile
	idxOff int64           // where the current segment's index frame starts, or noIndex
	segIdx map[string]segRef
	walIdx map[string][]walRef

	// Group-commit state, guarded by Store.cmu (never by mu).
	durable uint64 // records covered by the last acknowledged fsync
	syncErr error  // sticky fsync failure: durability is unknowable past it
}

// segRef locates one user's framed record in the lane's segment: header
// offset and payload length.
type segRef struct {
	off int64
	n   uint32
}

// walRef locates one framed event in the lane's current WAL.
type walRef struct {
	off int64
	n   uint32
	typ EventType
}

// The lane's two files, as reader, readAt and laneRecords name them.
const (
	segFile = iota
	walFile
)

// laneFNV32 is the 32-bit FNV-1a hash used for lane routing. The lane
// count is pinned by the manifest, so the mapping is stable across
// restarts — which is what makes per-lane replay equivalent to the old
// single-log replay for any one user.
func laneFNV32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (s *Store) laneFor(user string) *lane {
	if len(s.lanes) == 1 {
		return s.lanes[0]
	}
	return s.lanes[int(laneFNV32(user)%uint32(len(s.lanes)))]
}

func makeLanes(n int) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{id: i, idxOff: noIndex}
	}
	return lanes
}

func (s *Store) walPath(ln *lane, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%03d-%08d.log", walPrefix, ln.id, gen))
}

func (s *Store) segPath(ln *lane, gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%03d-%08d.db", segPrefix, ln.id, gen))
}

// laneFile parses a lane-qualified file name (wal-003-00000042.log,
// seg-003-00000042.db) into its lane id and generation. Pre-manifest
// names (wal-00000042.log) have no lane part and do not match.
func laneFile(name, prefix, suffix string) (laneID int, gen uint64, ok bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	i := strings.IndexByte(mid, '-')
	if i < 0 {
		return 0, 0, false
	}
	id, err := strconv.Atoi(mid[:i])
	if err != nil || id < 0 {
		return 0, 0, false
	}
	g, err := strconv.ParseUint(mid[i+1:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return id, g, true
}

// openLaneWAL opens ln's current-generation log for appending, truncating
// any torn tail first and indexing the records before it. Caller holds
// ln.mu (or is the constructor / checkpoint, which own the lane
// exclusively). The new directory entry is NOT synced here — Open and
// Checkpoint batch one SyncDir over every lane they touch, so a 16-lane
// store does not pay 16 directory fsyncs.
func (s *Store) openLaneWAL(ln *lane) error {
	size, err := s.indexWAL(ln)
	if err != nil {
		return err
	}
	f, err := s.fsys.OpenFile(s.walPath(ln, ln.gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if ln.walLen < size {
		// Torn tail from a crash mid-append: chop it so the next append
		// starts at a record boundary — appending after garbage is what
		// used to turn one torn record into a whole-log loss on the
		// following reload.
		if err := f.Truncate(ln.walLen); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.m.tornTails.Inc()
	}
	ln.wal = f
	return nil
}

// indexWAL scans ln's current WAL once: it sets ln.walLen to the valid
// prefix's length, rebuilds ln.walIdx from that prefix and returns the
// file's size. A torn tail is not an error — the prefix stops before it,
// which is all a ReadOnly store ever does about one. Valid records beyond
// the damage are: that is no torn append, and truncating would lose them.
func (s *Store) indexWAL(ln *lane) (size int64, err error) {
	data, err := s.readFileOrEmpty(s.walPath(ln, ln.gen))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	payloads, committed, err := scanRecords(data)
	if err != nil {
		return 0, fmt.Errorf("store: lane %d wal %d: %w", ln.id, ln.gen, err)
	}
	idx := make(map[string][]walRef)
	off := int64(0)
	for i, p := range payloads {
		// Only the event's head is decoded: type byte, then the user.
		user, _, err := readLenBytes(p[min(1, len(p)):])
		if err != nil {
			return 0, fmt.Errorf("store: lane %d wal %d record %d: %w", ln.id, ln.gen, i, err)
		}
		idx[string(user)] = append(idx[string(user)], walRef{off: off, n: uint32(len(p)), typ: EventType(p[0])})
		off += 8 + int64(len(p))
	}
	ln.walIdx, ln.walLen = idx, int64(committed)
	return int64(len(data)), nil
}

// indexLane makes sure both of ln's offset indexes exist (caller holds
// ln.mu). Segments are written via temp + rename and referenced only after
// a manifest commit, so any failure here is real corruption, never a torn
// write.
func (s *Store) indexLane(ln *lane) error {
	if ln.wal == nil && !s.opts.ReadOnly {
		return errClosed
	}
	if ln.walIdx == nil { // ReadOnly: no openLaneWAL ran
		if _, err := s.indexWAL(ln); err != nil {
			return err
		}
	}
	if ln.segIdx != nil {
		return nil
	}
	f, err := s.reader(ln, segFile)
	if errors.Is(err, fs.ErrNotExist) { // generation 0: no segment yet
		ln.segIdx = map[string]segRef{}
		return nil
	} else if err != nil {
		return err
	}
	ln.segIdx, _, err = s.segIndex(ln, f)
	return err
}

// segIndex returns the offset index of ln's current segment, read through
// f, and the segment's byte size (caller holds ln.mu). An indexed segment
// costs one pread of its index frame; one without is streamed through one
// buffer, every record checksummed and decoded once, so indexing never
// holds more than one profile.
func (s *Store) segIndex(ln *lane, f io.ReaderAt) (map[string]segRef, int64, error) {
	if ln.idxOff != noIndex {
		idx, size, err := readSegIndex(f, ln.idxOff)
		if err != nil {
			return nil, 0, fmt.Errorf("store: lane %d segment %d index at %d: %w", ln.id, ln.gen, ln.idxOff, err)
		}
		return idx, size, nil
	}
	idx := make(map[string]segRef)
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, math.MaxInt64), 64<<10)
	var frame []byte
	for off := int64(0); ; off += int64(len(frame)) {
		var err error
		if frame, err = readRecord(r, frame); err == io.EOF {
			return idx, off, nil
		}
		var rec ProfileRecord
		if err == nil {
			rec, err = decodeProfileRecord(frame[8:])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: lane %d segment %d offset %d: %w", ln.id, ln.gen, off, err)
		}
		idx[rec.User] = segRef{off: off, n: uint32(len(frame) - 8)}
	}
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
	entries = binary.AppendUvarint(entries, uint64(len(user)))
	entries = append(entries, user...)
	return binary.AppendUvarint(entries, uint64(n))
}

// encodeSegIndex is the index payload for count entries.
func encodeSegIndex(count int, entries []byte) []byte {
	return append(binary.AppendUvarint(make([]byte, 0, 10+len(entries)), uint64(count)), entries...)
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

// reader returns ln's read handle on its current segment or WAL, opening
// it on first use (caller holds ln.mu).
func (s *Store) reader(ln *lane, which int) (faultfs.File, error) {
	if ln.rd[which] == nil {
		path := s.segPath(ln, ln.gen)
		if which == walFile {
			path = s.walPath(ln, ln.gen)
		}
		f, err := s.fsys.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		ln.rd[which] = f
	}
	return ln.rd[which], nil
}

// readAt preads the record of n payload bytes framed at off in ln's
// current segment or WAL and verifies it (caller holds ln.mu). It returns
// the frame, payload at [8:], in buf when that is large enough.
func (s *Store) readAt(ln *lane, which int, off int64, n uint32, buf []byte) ([]byte, error) {
	f, err := s.reader(ln, which)
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

// closeReaders drops ln's read handles (caller holds ln.mu): at Close,
// and at a checkpoint flip before the files they name are removed.
func (ln *lane) closeReaders() {
	for i, f := range ln.rd {
		if f != nil {
			f.Close()
			ln.rd[i] = nil
		}
	}
}

// laneRecords reads and verifies one of ln's current files whole, for
// Load and compaction's replay (caller holds ln.mu). A segment's records
// must parse to its index frame — each the user its index entry names — or,
// without one, to its last byte; a WAL must parse up to its committed
// length (bytes past it can only be a poisoned write's remnants and are
// clamped away), except that ReadOnly mode tolerates a torn tail exactly
// the way recovery would.
func (s *Store) laneRecords(ln *lane, which int) ([][]byte, error) {
	path, strict := s.segPath(ln, ln.gen), true
	if which == walFile {
		path, strict = s.walPath(ln, ln.gen), !s.opts.ReadOnly
	}
	data, err := s.readFileOrEmpty(path)
	if err != nil {
		return nil, fmt.Errorf("store: lane %d: %w", ln.id, err)
	}
	if which == walFile && strict && int64(len(data)) > ln.walLen {
		data = data[:ln.walLen]
	}
	var idx map[string]segRef
	if which == segFile && ln.idxOff != noIndex {
		if idx, _, err = readSegIndex(bytes.NewReader(data), ln.idxOff); err == nil {
			data = data[:ln.idxOff]
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
		return nil, fmt.Errorf("store: lane %d %s: %w", ln.id, filepath.Base(path), err)
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
