// Package store persists user profiles, the long-lived state of a
// filtering system ("profile vectors are stored and maintained for long
// periods of time", paper Section 4.3), with the classic checkpoint +
// write-ahead-log design (DESIGN.md §14):
//
//   - subscribe/feedback/unsubscribe events append to one write-ahead log
//     (wal-000-<gen>.log), whose distinct users are the dirty profiles; a
//     subscribe record holds the bytes the import carried, and replay
//     decodes them as the import did;
//   - the profiles live in an immutable segment (seg-000-<gen>.db) that
//     ends with an offset index — Checkpoint compacts the WAL into the
//     next segment, copying clean profiles' records verbatim instead of
//     re-encoding every profile in the store;
//   - a MANIFEST file names the current generation and is replaced
//     atomically (temp + fsync + rename + directory fsync), so a
//     checkpoint commits at once or not at all.
//
// Recovery loads the manifest-referenced segment and replays the log; MM's
// update rules are deterministic, so replay reconstructs the
// exact pre-crash profiles, and RestoreUser replays a single user on demand
// for lazy hydration. Every record is length-prefixed and CRC32-guarded. A
// torn tail (crash mid-append) is detected at Open and truncated away before
// any new append can land behind it; corruption anywhere before the tail is
// refused, never silently skipped. A directory in an older release's
// layout is refused untouched.
//
// Durability is group-committed (DESIGN.md §10): with Options.Durable,
// each Append* returns only after an fsync covers its record. One leader at
// a time fsyncs the log for every record appended so far, so concurrent
// appenders coalesce onto a single leader pass. Without it a record is
// durable at the next Checkpoint or clean Close, and Sync() is an explicit
// barrier. All filesystem access goes through internal/faultfs, so the
// crash-matrix tests can kill the store at every syscall boundary;
// production runs on bare *os.File handles.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/trace"
	"mmprofile/internal/vsm"
)

// ProfileRecord is one user's serialized profile in a segment.
type ProfileRecord struct {
	User    string
	Learner string // served learner name (core.NewNamed)
	Data    []byte // the profile's MarshalBinary output
}

// event is the subscribe a segment record stands for: replaying it gives
// the checkpointed profile.
func (r ProfileRecord) event() Event {
	return Event{Type: EventSubscribe, User: r.User, Learner: r.Learner, State: r.Data}
}

// EventType tags a log record.
type EventType byte

const (
	// EventFeedback is a relevance judgment (user, fd, document vector).
	EventFeedback EventType = iota
	// EventSubscribe is a new subscription (user, learner name, and the
	// profile's initial state: the bytes an import carried, or a fresh
	// profile's MarshalBinary output, e.g. a keyword seed).
	EventSubscribe
	// EventUnsubscribe removes a user.
	EventUnsubscribe
)

// Event is one replayable log record.
type Event struct {
	Type EventType
	User string
	// Feedback fields.
	Fd  filter.Feedback
	Vec vsm.Vector
	// Subscribe fields.
	Learner string
	State   []byte
}

// Options configures a Store.
type Options struct {
	// Durable makes every Append* return only once an fsync covers its
	// record. Appenders arriving while a sync is in flight coalesce onto
	// the next leader pass (group commit), so the cost under concurrency
	// is far below one fsync per append.
	Durable bool
	// ReadOnly opens the store for inspection: no torn-tail repair, no
	// log handles, no manifest write. Open indexes the WAL once, up to a
	// torn tail the way recovery would, and keeps any corruption before it
	// for every read to report. Appends, Checkpoint, and Sync fail. mmstore
	// uses this so inspecting a crashed state directory never mutates it.
	ReadOnly bool
	// FS overrides the filesystem — fault injection in tests
	// (faultfs.Sim). Nil means the real OS filesystem.
	FS faultfs.FS
	// Metrics, when non-nil, receives the mm_store_* instrument family
	// (append/fsync/checkpoint/group-commit latencies and counts, DESIGN.md
	// §8). Nil disables instrumentation entirely. mmserver shares one
	// registry between the broker and the store.
	Metrics *metrics.Registry
}

// Store is a directory-backed profile store. Safe for concurrent use.
type Store struct {
	opts  Options
	fsys  faultfs.FS
	m     storeMetrics // all-nil (no-op) when opts.Metrics is nil
	dir   string
	epoch atomic.Uint64 // manifest commit counter

	// mu guards the journal's write path: the generation, the WAL handle,
	// its committed byte length, the record count, and the offset index.
	mu     sync.Mutex
	gen    uint64
	wal    faultfs.File
	walLen int64  // committed bytes in the current WAL (resets per generation)
	recs   uint64 // records ever written (monotone across generations)
	failed error  // sticky write-path failure; reopen repairs

	// Offset index (DESIGN.md §14): where each user's records sit in the
	// current generation's files, so a cold profile costs index entries and
	// no payload bytes. segIdx is decoded on first use (nil until then) from
	// the index frame the segment ends with — at idxOff, which the manifest
	// commits; walIdx by the scan at Open — in a ReadOnly store up to the
	// first damage, which walErr keeps — and grows with every append. A
	// checkpoint flip installs the offsets it wrote, starts an empty walIdx
	// and closes the read handles, so nothing ever reads a removed
	// generation. walIdx's keys are the dirty users — those with events no
	// segment holds yet — whether this process appended the events or
	// recovered them: there is no other record of dirtiness.
	rd     [2]faultfs.File // read handles, by segFile / walFile
	idxOff int64           // where the current segment's index frame starts, or noIndex
	segLen int64           // the current segment's size, once segIdx is decoded
	segIdx map[string]segRef
	walIdx map[string][]walRef
	walErr error // ReadOnly: the corruption the WAL's index stopped before

	// cmu guards the group-commit state: the sync token, the durability
	// watermark and the sticky fsync error. Lock discipline: no goroutine
	// ever waits for cmu while holding mu (appenders release mu before
	// joining a commit), so the sync leader may take mu briefly while the
	// token is claimed.
	cmu     sync.Mutex
	cond    *sync.Cond
	syncing bool // sync token: one leader pass (or one checkpoint) at a time
	closed  bool
	durable uint64 // records covered by the last acknowledged fsync
	syncErr error  // sticky fsync failure: durability is unknowable past it

	// ckptMu serializes checkpoints; the generation only changes under it.
	ckptMu sync.Mutex
}

const (
	walPrefix = "wal-"
	segPrefix = "seg-"
	// maxRecordLen bounds a record's claimed payload size. Records are
	// written in one Write call, so any readable length field was fully
	// written; a length beyond this bound is therefore corruption, never
	// a torn append.
	maxRecordLen = 1 << 28
)

var errClosed = errors.New("store: closed")

// Open opens (or initializes) a store in dir, creating it if needed. A
// torn WAL tail left by a crash mid-append is truncated here, before any
// append can land behind it; mid-log corruption makes Open fail rather
// than risk silently dropping everything after the damage. A directory in
// an older release's layout is refused, in both modes, before anything is
// written, renamed or removed: a manifest naming several WAL lanes, version
// 1, or a segment without an index frame (decodeManifest); or no manifest
// beside pre-manifest files (wal-<seq>.log, snap-<seq>.db), which
// initializing as a fresh store would discard.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{opts: opts, fsys: fsys, dir: dir, idxOff: noIndex}
	s.cond = sync.NewCond(&s.cmu)
	if opts.Metrics != nil {
		s.m = RegisterMetrics(opts.Metrics)
	}

	mf, found, err := readManifest(fsys, dir)
	switch {
	case err != nil:
		return nil, err
	case !found:
		if err := detectLegacy(fsys, dir); err != nil {
			return nil, err
		}
		if !opts.ReadOnly { // an empty directory is inspected as it is
			s.epoch.Store(1)
			if err := s.writeManifest(1, 0, noIndex); err != nil {
				return nil, err
			}
		}
	default:
		s.epoch.Store(mf.epoch)
		s.gen, s.idxOff = mf.gen, mf.idx
	}

	if opts.ReadOnly {
		_, s.walErr = s.indexWAL()
		return s, nil
	}
	s.cleanStrays()
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.m.dirtyProfiles.Set(float64(len(s.walIdx)))
	// Persist the WAL's directory entry (its creation, or a torn-tail
	// truncate's metadata).
	if err := fsys.SyncDir(dir); err != nil {
		s.wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// Close drains any in-flight group commit, flushes the log, and closes its
// handles. Safe to call twice.
func (s *Store) Close() error {
	s.cmu.Lock()
	for s.syncing {
		s.cond.Wait()
	}
	s.syncing = true
	s.cmu.Unlock()

	var err error
	flushed := false
	s.mu.Lock()
	s.closeReaders()
	if s.wal != nil {
		if s.failed == nil {
			err = s.wal.Sync()
		}
		if cerr := s.wal.Close(); err == nil {
			err = cerr
		}
		s.wal = nil
		// A poisoned log was not synced: its waiters are not covered.
		flushed = err == nil && s.failed == nil
	}
	recs := s.recs
	s.mu.Unlock()

	s.cmu.Lock()
	s.syncing = false
	s.closed = true
	if flushed && recs > s.durable {
		s.durable = recs
	}
	s.cond.Broadcast()
	s.cmu.Unlock()
	return err
}

// AppendFeedback records one feedback event.
func (s *Store) AppendFeedback(user string, v vsm.Vector, fd filter.Feedback) error {
	return s.AppendFeedbackTraced(user, v, fd, nil)
}

// AppendFeedbackTraced is AppendFeedback with request tracing: when sp is a
// live span (it may be nil), the append's phases are recorded as child
// spans — store.wal_write for the serialized write under the journal lock
// and store.commit_wait for the group-commit fsync wait (durable mode
// only), the two very different reasons an append can be slow.
func (s *Store) AppendFeedbackTraced(user string, v vsm.Vector, fd filter.Feedback, sp *trace.Span) error {
	frame := newFrame(1 + lenBytesSize(len(user)) + 1 + vsm.EncodedSize(v))
	frame = append(frame, byte(EventFeedback))
	frame = appendLenBytes(frame, user)
	b := byte(0)
	if fd == filter.Relevant {
		b = 1
	}
	frame = append(frame, b)
	frame = vsm.AppendVector(frame, v)
	return s.appendFrame(user, frame, sp)
}

// AppendSubscribe records a new subscription together with the profile's
// initial state, bytes core.NewNamed loads: replay decodes exactly these.
// They are copied into the record and not retained.
func (s *Store) AppendSubscribe(user, learner string, state []byte) error {
	frame := newFrame(1 + lenBytesSize(len(user)) + lenBytesSize(len(learner)) + lenBytesSize(len(state)))
	frame = append(frame, byte(EventSubscribe))
	frame = appendLenBytes(frame, user)
	frame = appendLenBytes(frame, learner)
	frame = appendLenBytes(frame, state)
	return s.appendFrame(user, frame, nil)
}

// AppendUnsubscribe records a user's removal.
func (s *Store) AppendUnsubscribe(user string) error {
	frame := newFrame(1 + lenBytesSize(len(user)))
	frame = append(frame, byte(EventUnsubscribe))
	frame = appendLenBytes(frame, user)
	return s.appendFrame(user, frame, nil)
}

// appendFrame writes one event's record, built by newFrame, to the WAL and
// indexes it under user.
func (s *Store) appendFrame(user string, frame []byte, sp *trace.Span) error {
	t0 := time.Now()
	ws := sp.ChildAt("store.wal_write", t0)
	s.mu.Lock()
	if s.wal == nil {
		s.mu.Unlock()
		if s.opts.ReadOnly {
			return errors.New("store: read-only")
		}
		return errClosed
	}
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if err := writeFrame(s.wal, frame); err != nil {
		// A failed or short write leaves bytes of unknown extent in the
		// file; any later append would land behind garbage. Poison the
		// write path — reopening repairs via the torn-tail scan.
		s.failed = err
		s.mu.Unlock()
		ws.End()
		return err
	}
	refs := s.walIdx[user]
	if refs == nil {
		s.m.dirtyProfiles.Add(1)
	}
	s.walIdx[user] = append(refs, walRef{off: s.walLen, n: uint32(len(frame) - 8), typ: EventType(frame[8])})
	s.walLen += int64(len(frame))
	s.recs++
	pos := s.recs
	s.mu.Unlock()
	ws.SetInt("bytes", int64(len(frame)))
	ws.End()

	s.m.appends.Inc()
	if s.opts.Durable {
		cw := sp.Child("store.commit_wait")
		err := s.waitDurable(pos)
		cw.End()
		if err != nil {
			return err
		}
	}
	s.m.appendLat.ObserveSince(t0)
	return nil
}

// appendLenBytes appends b as a uvarint length and its bytes.
func appendLenBytes[T string | []byte](buf []byte, b T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// lenBytesSize is how many bytes appendLenBytes appends for n bytes.
func lenBytesSize(n int) int { return uvarintSize(uint64(n)) + n }

// uvarintSize is the length of x's uvarint encoding.
func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Sync is the durability barrier: it returns once every record appended
// before the call is fsynced, leading at most one group pass itself (and
// none when group commits already covered them).
func (s *Store) Sync() error {
	if s.opts.ReadOnly {
		return errors.New("store: read-only")
	}
	s.mu.Lock()
	open, pos := s.wal != nil, s.recs
	s.mu.Unlock()
	if !open {
		return errClosed
	}
	return s.waitDurable(pos)
}

// waitDurable blocks until records 1..pos are covered by an acknowledged
// fsync. The first waiter to find no leader in flight claims the token and
// leads one pass; waiters that arrive mid-pass coalesce onto the next one.
// This is the group commit: under N concurrent durable appenders, each
// leader pass acknowledges a whole batch.
func (s *Store) waitDurable(pos uint64) error {
	t0 := time.Now()
	s.cmu.Lock()
	for {
		if s.durable >= pos {
			s.cmu.Unlock()
			s.m.groupWaitLat.ObserveSince(t0)
			return nil
		}
		if s.syncErr != nil {
			err := s.syncErr
			s.cmu.Unlock()
			return err
		}
		if s.closed {
			s.cmu.Unlock()
			return errClosed
		}
		if !s.syncing {
			s.syncing = true
			s.cmu.Unlock()
			s.leadSync()
			s.cmu.Lock()
			continue
		}
		s.cond.Wait()
	}
}

// leadSync performs one group-commit pass: one fsync of the log when it
// holds records beyond the durability watermark, then the watermark's
// advance. Caller holds the sync token (not cmu); the token keeps the log
// handle stable — Checkpoint and Close wait for it before swapping or
// closing the WAL.
//
// The leader yields once before it reads the batch end. A real fsync is a
// blocking syscall that keeps the leader's P, so an appender that is
// runnable but not running when the fsync starts writes its record during
// it and waits for a whole second fsync; at GOMAXPROCS 1 that is every
// other appender. The yield lets each of them write first and join this
// batch (DESIGN.md §10).
func (s *Store) leadSync() {
	runtime.Gosched()
	s.mu.Lock()
	f, to := s.wal, s.recs
	s.mu.Unlock()
	s.cmu.Lock()
	pending := s.syncErr == nil && to > s.durable
	s.cmu.Unlock()

	var err error
	if pending {
		t0 := time.Now()
		if f == nil {
			err = errClosed
		} else if err = f.Sync(); err == nil {
			s.m.fsyncs.Inc()
			s.m.fsyncLat.ObserveSince(t0)
		} else {
			// The records it covered are refused but lie in the file, and a
			// later fsync would make them durable, with anything appended
			// after their refusal on top. Poison the write path before any
			// waiter hears of the failure: nothing more is written, Close
			// syncs nothing and Checkpoint refuses.
			s.mu.Lock()
			if s.failed == nil {
				s.failed = fmt.Errorf("store: %w", err)
			}
			s.mu.Unlock()
		}
	}

	s.cmu.Lock()
	s.syncing = false
	if pending && err != nil {
		s.syncErr = err
	} else if pending && to > s.durable {
		batch := to - s.durable
		s.durable = to
		s.m.groupBatches.Inc()
		s.m.groupRecords.Add(int64(batch))
		s.m.groupBatchRecs.Observe(float64(batch))
	}
	s.cond.Broadcast()
	s.cmu.Unlock()
}

// Load streams the segment and log, a frame at a time, under the journal
// lock, so a concurrent append can never be misread as a torn tail and
// silently dropped. Every segment record must be the one its index entry
// names at that offset, and the WAL is read to the prefix its index covers:
// in read-write mode Open truncated any torn tail; in ReadOnly mode its
// index stopped before one, exactly as recovery would.
func (s *Store) Load() ([]ProfileRecord, []Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.indexJournal(); err != nil {
		return nil, nil, err
	}
	profiles := make([]ProfileRecord, 0, len(s.segIdx))
	err := s.scanSegment(func(rec ProfileRecord, _ []byte) error {
		rec.Data = bytes.Clone(rec.Data)
		profiles = append(profiles, rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var events []Event
	err = s.scanWAL(func(_ int64, ev Event) error {
		ev.State = bytes.Clone(ev.State)
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return profiles, events, nil
}

// WALInfo describes the journal's on-disk state, for inspection tooling
// (mmstore) and the flight recorder.
type WALInfo struct {
	Seq         uint64 // manifest epoch (commit count)
	Gen         uint64 // manifest-committed generation
	Records     int    // complete, checksummed WAL records
	ByType      [3]int // of those, feedbacks, subscribes and unsubscribes (by EventType)
	Committed   int64  // byte length of the WAL's valid prefix
	Torn        int64  // trailing bytes past the valid prefix (crash residue)
	DirtyUsers  int    // distinct users with events in the current WAL
	SegProfiles int    // profiles in the current segment
	SegBytes    int64  // byte size of the current segment
}

// WALInfo reports the journal's integrity from the offset index, which
// Open built and every append maintains, and reads only the WAL's bytes
// past its committed length: a torn tail, or a poisoned write's remnants.
// The segment's figures come from its index frame. A non-nil error means
// corruption before the WAL's tail or in the segment's index; the returned
// info still describes the valid prefix.
func (s *Store) WALInfo() (WALInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := WALInfo{Seq: s.epoch.Load(), Gen: s.gen, Committed: s.walLen, DirtyUsers: len(s.walIdx)}
	for _, refs := range s.walIdx {
		info.Records += len(refs)
		for _, ref := range refs {
			if int(ref.typ) < len(info.ByType) {
				info.ByType[ref.typ]++
			}
		}
	}
	rerr := s.readOwn(s.walPath(s.gen), func(r io.ReaderAt) (err error) {
		info.Torn, err = io.Copy(io.Discard, io.NewSectionReader(r, s.walLen, math.MaxInt64-s.walLen))
		return err
	})
	serr := s.indexSegment()
	info.SegProfiles, info.SegBytes = len(s.segIdx), s.segLen
	return info, cmp.Or(s.walErr, rerr, serr)
}

// Health rolls up the store's sticky failure state without touching disk:
// a write-path poison first, then closed, then a sticky fsync failure. Nil
// means the write path is healthy. ReadOnly stores report a degraded-style
// error since they cannot accept appends. Cheap enough to poll from
// /readyz — two mutex acquisitions, no I/O.
func (s *Store) Health() error {
	if s.opts.ReadOnly {
		return errors.New("store: opened read-only")
	}
	s.mu.Lock()
	failed := s.failed
	s.mu.Unlock()
	if failed != nil {
		return fmt.Errorf("store: journal: %w", failed)
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.closed {
		return errClosed
	}
	if s.syncErr != nil {
		return fmt.Errorf("store: journal: %w", s.syncErr)
	}
	return nil
}

// appendProfilePayload appends a segment record's payload: the user, the
// learner name and the profile's MarshalBinary output, each length-prefixed.
func appendProfilePayload(buf []byte, user, learner string, data []byte) []byte {
	buf = appendLenBytes(buf, user)
	buf = appendLenBytes(buf, learner)
	return appendLenBytes(buf, data)
}

func decodeProfileRecord(payload []byte) (ProfileRecord, error) {
	user, rest, err := readLenBytes(payload)
	if err != nil {
		return ProfileRecord{}, err
	}
	learner, rest, err := readLenBytes(rest)
	if err != nil {
		return ProfileRecord{}, err
	}
	data, rest, err := readLenBytes(rest)
	if err != nil {
		return ProfileRecord{}, err
	}
	if len(rest) != 0 {
		return ProfileRecord{}, fmt.Errorf("trailing bytes")
	}
	return ProfileRecord{User: string(user), Learner: string(learner), Data: data}, nil
}

func decodeEvent(payload []byte) (Event, error) {
	if len(payload) < 1 {
		return Event{}, fmt.Errorf("empty event")
	}
	typ := EventType(payload[0])
	user, rest, err := readLenBytes(payload[1:])
	if err != nil {
		return Event{}, err
	}
	ev := Event{Type: typ, User: string(user)}
	switch typ {
	case EventFeedback:
		if len(rest) < 1 {
			return Event{}, fmt.Errorf("missing feedback byte")
		}
		ev.Fd = filter.NotRelevant
		if rest[0] == 1 {
			ev.Fd = filter.Relevant
		}
		if ev.Vec, rest, err = vsm.DecodeVector(rest[1:]); err != nil {
			return Event{}, err
		}
	case EventSubscribe:
		var learner []byte
		if learner, rest, err = readLenBytes(rest); err != nil {
			return Event{}, err
		}
		ev.Learner = string(learner)
		if ev.State, rest, err = readLenBytes(rest); err != nil {
			return Event{}, err
		}
	case EventUnsubscribe:
		// user only
	default:
		return Event{}, fmt.Errorf("unknown event type %d", typ)
	}
	if len(rest) != 0 {
		return Event{}, fmt.Errorf("trailing bytes")
	}
	return ev, nil
}

func readLenBytes(buf []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || n > uint64(len(buf)-k) {
		return nil, nil, fmt.Errorf("truncated field")
	}
	// n ≤ len(buf)-k ≤ MaxInt here, so int(n) cannot overflow — on
	// 32-bit platforms included, where a blind int(n) of an attacker-
	// controlled varint would go negative and panic the slice below.
	end := k + int(n)
	return buf[k:end], buf[end:], nil
}

// Record framing: 4-byte little-endian payload length, 4-byte CRC32
// (IEEE) of the payload, payload bytes. Every record — WAL event, segment
// profile, segment index, manifest — is built once, in a buffer newFrame
// sizes up front with the header reserved, and written by writeFrame in a
// single Write call, so a torn append is always a contiguous prefix of one
// record.

// newFrame returns an empty record with room for n payload bytes, to be
// appended after the reserved header.
func newFrame(n int) []byte { return make([]byte, 8, 8+n) }

// sealFrame fills frame's header from its payload, frame[8:].
func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// writeFrame seals frame and writes it in one Write.
func writeFrame(w io.Writer, frame []byte) error {
	if _, err := w.Write(sealFrame(frame)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

var errChecksum = errors.New("checksum mismatch")

// readRecord reads the next framed record from r into buf (replaced when
// too small) and verifies it. It returns the whole frame, payload at [8:];
// io.EOF means r ended cleanly before the record.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 8 {
		buf = make([]byte, 8)
	}
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf[:4])
	if n > maxRecordLen {
		return nil, fmt.Errorf("implausible record size %d", n)
	}
	if cap(buf) < 8+int(n) {
		buf = append(make([]byte, 0, 8+int(n)), buf[:8]...)
	}
	buf = buf[:8+int(n)]
	if _, err := io.ReadFull(r, buf[8:]); err == io.EOF {
		return nil, io.ErrUnexpectedEOF
	} else if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf[8:]) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, errChecksum
	}
	return buf, nil
}

// scanBufSize is the scan's read buffer: it reads no more at once, except
// straight into a frame larger than the buffer.
const scanBufSize = 64 << 10

// scan streams the framed records of r from offset 0 to its end, handing
// fn each record's offset and payload, which fn may use only during the
// call; fn's error ends the scan. It returns the valid prefix's length and
// whether a torn append follows it: a short header, a frame that runs past
// the end, or a checksum failure with no byte after its frame. Anything
// else before the end — an implausible length, a checksum failure with
// bytes behind it — is corruption: records are written in one call each,
// so a readable length field was fully written, and damage before the tail
// is never a torn append.
func scan(r io.ReaderAt, fn func(off int64, payload []byte) error) (end int64, torn bool, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, math.MaxInt64), scanBufSize)
	var buf []byte
	for {
		// A frame larger than the buffer must end inside the file before
		// readRecord sizes a buffer for it: a garbage length costs a probe,
		// not an allocation of up to maxRecordLen.
		if hdr, err := br.Peek(8); err == nil {
			n := int64(binary.LittleEndian.Uint32(hdr))
			if n <= maxRecordLen && 8+n > scanBufSize {
				if ok, err := hasByte(r, end+8+n-1); err != nil || !ok {
					return end, err == nil, err
				}
			}
		}
		frame, err := readRecord(br, buf)
		switch _, next := br.Peek(1); {
		case err == io.EOF:
			return end, false, nil
		case err == io.ErrUnexpectedEOF || err == errChecksum && next == io.EOF:
			return end, true, nil
		case err != nil:
			return end, false, fmt.Errorf("%w at offset %d", err, end)
		}
		if err := fn(end, frame[8:]); err != nil {
			return end, false, err
		}
		end += int64(len(frame))
		buf = frame
	}
}

// hasByte reports whether r holds a byte at off.
func hasByte(r io.ReaderAt, off int64) (bool, error) {
	var b [1]byte
	n, err := r.ReadAt(b[:], off)
	if n == 1 || err == io.EOF {
		err = nil
	}
	return n == 1, err
}

// apply is the replay rule: it applies one journal event to its user's
// profile slot (nil while the user does not exist) and returns the slot's
// new content. A subscribe replaces whatever was there with a profile of
// the named learner (core.NewNamed) loaded from the event's state, an
// unsubscribe empties the slot, a feedback is replayed (Profile.Replay,
// which files no audit event) — and is an error on an empty slot, because
// the broker never journals one. A segment record is replayed as the
// subscribe it stands for. Its two walkers, replay (checkpoints and the
// eager boot) and RestoreUser (one user), differ only in how they reach
// the events and where they keep the slots. Its errors carry no "store:"
// prefix: every caller puts the record's position in front.
func apply(l *core.Profile, ev Event) (*core.Profile, error) {
	switch ev.Type {
	case EventSubscribe:
		p, err := core.NewNamed(ev.Learner, ev.State)
		if err != nil {
			return nil, fmt.Errorf("restore %q: %w", ev.User, err)
		}
		return p, nil
	case EventUnsubscribe:
		return nil, nil
	case EventFeedback:
		if l == nil {
			return nil, fmt.Errorf("feedback for unknown user %q", ev.User)
		}
		l.Replay(ev.Vec, ev.Fd)
		return l, nil
	default:
		return nil, fmt.Errorf("unknown event type %d", ev.Type)
	}
}

// replay walks the whole journal once, in the order a checkpoint writes it
// (caller holds s.mu, after indexJournal). One streamed pass of the WAL
// applies every event to the users it touches, a dirty segment user's
// profile read first by segProfile. One streamed pass of the segment then
// hands fn each surviving user in segment order, and the users only the
// WAL holds follow in first-subscribe order. A clean user comes with its
// record's payload, valid only during the call, and a nil profile; a dirty
// one with its replayed profile and a nil payload.
func (s *Store) replay(fn func(user string, payload []byte, l *core.Profile) error) error {
	// One slot per user the WAL touches: the profile apply has made of the
	// user's events so far (nil once unsubscribed).
	touched := make(map[string]*core.Profile, len(s.walIdx))
	var fresh []string
	var buf []byte
	err := s.scanWAL(func(off int64, ev Event) error {
		l, seen := touched[ev.User]
		ref, inSeg := s.segIdx[ev.User]
		switch {
		case ev.Type == EventSubscribe && !seen && !inSeg:
			fresh = append(fresh, ev.User)
		case ev.Type == EventFeedback && !seen && inSeg:
			// First touch of a segment profile: rehydrate it.
			var err error
			if l, buf, err = s.segProfile(ev.User, ref, buf); err != nil {
				return err
			}
		case ev.Type == EventUnsubscribe && !seen && !inSeg:
			return nil // of a user the store never held: nothing to drop
		}
		l, err := apply(l, ev)
		if err != nil {
			return fmt.Errorf("store: wal %d offset %d: %w", s.gen, off, err)
		}
		touched[ev.User] = l
		return nil
	})
	if err != nil {
		return err
	}
	err = s.scanSegment(func(rec ProfileRecord, p []byte) error {
		switch l, dirty := touched[rec.User]; {
		case !dirty:
			return fn(rec.User, p, nil)
		case l != nil:
			return fn(rec.User, nil, l)
		}
		return nil // unsubscribed
	})
	if err != nil {
		return err
	}
	for _, user := range fresh {
		if l := touched[user]; l != nil {
			if err := fn(user, nil, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreAll rebuilds every surviving profile from durable state in one
// walk of the journal (replay): the eager boot. Recovery is all-or-nothing:
// any undecodable record, learner name outside core.NewNamed's set or
// inconsistency (feedback for an unknown user) is an error.
func (s *Store) RestoreAll() (map[string]*core.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.indexJournal(); err != nil {
		return nil, err
	}
	out := make(map[string]*core.Profile, len(s.segIdx))
	err := s.replay(func(user string, p []byte, l *core.Profile) error {
		if l == nil { // clean: its segment record
			rec, err := decodeProfileRecord(p)
			if err == nil {
				l, err = apply(nil, rec.event())
			}
			if err != nil {
				return fmt.Errorf("store: segment %d: %w", s.gen, err)
			}
		}
		out[user] = l
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RestoredUsers lists the surviving users, sorted, from the offset indexes
// alone — no profile is read or rebuilt. It is the boot
// path for lazy hydration: pubsub registers one evicted stub per name and
// hydrates on first touch.
func (s *Store) RestoredUsers() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.indexJournal(); err != nil {
		return nil, err
	}
	var out []string
	for user := range s.segIdx {
		if _, touched := s.walIdx[user]; !touched {
			out = append(out, user)
		}
	}
	for user, refs := range s.walIdx {
		// The user's last subscribe or unsubscribe decides; with feedback
		// only, the segment's entry stands.
		i := len(refs) - 1
		for i >= 0 && refs[i].typ == EventFeedback {
			i--
		}
		_, inSeg := s.segIdx[user]
		if (i < 0 && inSeg) || (i >= 0 && refs[i].typ == EventSubscribe) {
			out = append(out, user)
		}
	}
	sort.Strings(out)
	return out, nil
}
