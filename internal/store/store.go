// Package store persists user profiles, the long-lived state of a
// filtering system ("profile vectors are stored and maintained for long
// periods of time", paper Section 4.3), with the classic checkpoint +
// write-ahead-log design (DESIGN.md §14):
//
//   - subscribe/feedback/unsubscribe events append to one write-ahead log
//     (wal-000-<gen>.log), whose distinct users are the dirty profiles;
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
// refused, never silently skipped. A directory an older release sharded
// into several lanes is folded into one journal the first time it is opened
// for writing (fold.go).
//
// Durability is group-committed (DESIGN.md §10): with Options.Durable,
// each Append* returns only after an fsync covers its record. One leader at
// a time fsyncs the log for every record appended so far, so concurrent
// appenders coalesce onto a single leader pass. Options.SyncInterval
// instead bounds the loss window with a background flusher, and Sync() is
// always available as an explicit barrier. All filesystem access goes
// through internal/faultfs, so the crash-matrix tests can kill the store at
// every syscall boundary; production runs on bare *os.File handles.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
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
	// profile's initial serialized state, e.g. a keyword seed).
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
	// SyncInterval, when > 0 and Durable is off, bounds the loss window
	// instead: appends return immediately and a background flusher fsyncs
	// the log every interval. Sync() remains an explicit barrier.
	SyncInterval time.Duration
	// ReadOnly opens the store for inspection: no torn-tail repair, no
	// log handles, no manifest write, and Load tolerates a torn tail the way
	// recovery would. Appends, Checkpoint, and Sync fail, and a directory
	// that needs a fold is refused. mmstore uses this so inspecting a
	// crashed state directory never mutates it.
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
	// commits; walIdx by the scan that opens the WAL — in a ReadOnly store
	// on first use, as tolerant of a torn tail — and grows with every
	// append. A checkpoint flip installs the offsets it wrote, starts an
	// empty walIdx and closes the read handles, so nothing ever reads a
	// removed generation. walIdx's keys are the dirty users — those with
	// events no segment holds yet — whether this process appended the
	// events or recovered them: there is no other record of dirtiness.
	rd     [2]faultfs.File // read handles, by segFile / walFile
	idxOff int64           // where the current segment's index frame starts, or noIndex
	segIdx map[string]segRef
	walIdx map[string][]walRef

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

	stopFlush chan struct{} // interval flusher; nil unless SyncInterval armed
	flushDone chan struct{}
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
// than risk silently dropping everything after the damage. A directory an
// older release wrote with several lanes, or with a segment that has no
// index frame, is folded into one journal first (fold.go); a ReadOnly open
// refuses it. A directory without a manifest that holds pre-manifest files
// (wal-<seq>.log, snap-<seq>.db) is refused untouched: initializing it as a
// fresh store would discard a journal some earlier release acknowledged.
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
	case !needsFold(mf):
		s.epoch.Store(mf.epoch)
		s.gen, s.idxOff = mf.gens[0], mf.idx[0]
	case opts.ReadOnly:
		return nil, fmt.Errorf("store: %s is an older release's layout (%d lanes, or a segment without an index); open it once for writing to fold it into one journal",
			dir, len(mf.gens))
	default:
		if err := s.fold(mf); err != nil {
			return nil, fmt.Errorf("store: folding %d lanes into one journal: %w", len(mf.gens), err)
		}
	}

	if !opts.ReadOnly {
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
		if opts.SyncInterval > 0 && !opts.Durable {
			s.stopFlush = make(chan struct{})
			s.flushDone = make(chan struct{})
			go s.flushLoop(opts.SyncInterval, s.stopFlush)
		}
	}
	return s, nil
}

// flushLoop is the SyncInterval background flusher. It is handed stop: Close
// clears s.stopFlush, and a loop that read nil there would never end.
func (s *Store) flushLoop(d time.Duration, stop <-chan struct{}) {
	defer close(s.flushDone)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Best-effort: a failure is sticky in syncErr and surfaces on
			// the next explicit barrier or durable operation.
			_ = s.Sync()
		case <-stop:
			return
		}
	}
}

// Close drains any in-flight group commit, flushes the log, and closes its
// handles. Safe to call twice.
func (s *Store) Close() error {
	s.cmu.Lock()
	stop := s.stopFlush
	s.stopFlush = nil
	s.cmu.Unlock()
	if stop != nil {
		close(stop)
		<-s.flushDone
	}

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
		flushed = err == nil
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
	payload := []byte{byte(EventFeedback)}
	payload = appendLenBytes(payload, []byte(user))
	b := byte(0)
	if fd == filter.Relevant {
		b = 1
	}
	payload = append(payload, b)
	payload = vsm.AppendVector(payload, v)
	return s.appendPayload(user, payload, sp)
}

// AppendSubscribe records a new subscription together with the profile's
// initial serialized state.
func (s *Store) AppendSubscribe(user, learner string, state []byte) error {
	payload := []byte{byte(EventSubscribe)}
	payload = appendLenBytes(payload, []byte(user))
	payload = appendLenBytes(payload, []byte(learner))
	payload = appendLenBytes(payload, state)
	return s.appendPayload(user, payload, nil)
}

// AppendUnsubscribe records a user's removal.
func (s *Store) AppendUnsubscribe(user string) error {
	payload := []byte{byte(EventUnsubscribe)}
	payload = appendLenBytes(payload, []byte(user))
	return s.appendPayload(user, payload, nil)
}

func (s *Store) appendPayload(user string, payload []byte, sp *trace.Span) error {
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
	if err := writeRecord(s.wal, payload); err != nil {
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
	s.walIdx[user] = append(refs, walRef{off: s.walLen, n: uint32(len(payload)), typ: EventType(payload[0])})
	s.walLen += int64(len(payload)) + 8
	s.recs++
	pos := s.recs
	s.mu.Unlock()
	ws.SetInt("bytes", int64(len(payload))+8)
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

func appendLenBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

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
func (s *Store) leadSync() {
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

// Load reads the segment and log under the journal lock, so a concurrent
// append can never be misread as a torn tail and silently dropped. In
// ReadOnly mode a genuinely torn tail is tolerated exactly as recovery
// would tolerate it; in read-write mode the tail was already truncated at
// Open, so any trailing garbage is an error.
func (s *Store) Load() ([]ProfileRecord, []Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := s.records(segFile)
	if err != nil {
		return nil, nil, err
	}
	profiles := make([]ProfileRecord, 0, len(segs))
	for i, payload := range segs {
		rec, err := decodeProfileRecord(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("store: segment %d record %d: %w", s.gen, i, err)
		}
		profiles = append(profiles, rec)
	}
	payloads, err := s.records(walFile)
	if err != nil {
		return nil, nil, err
	}
	var events []Event
	for i, payload := range payloads {
		ev, err := decodeEvent(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("store: wal %d record %d: %w", s.gen, i, err)
		}
		events = append(events, ev)
	}
	return profiles, events, nil
}

// readFileOrEmpty reads a file, mapping absence to emptiness.
func (s *Store) readFileOrEmpty(path string) ([]byte, error) {
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	return data, nil
}

// WALInfo describes the journal's on-disk state, for inspection tooling
// (mmstore) and the flight recorder.
type WALInfo struct {
	Seq         uint64 // manifest epoch (commit count)
	Gen         uint64 // manifest-committed generation
	Records     int    // complete, checksummed WAL records
	Committed   int64  // byte length of the WAL's valid prefix
	Torn        int64  // trailing bytes past the valid prefix (crash residue)
	DirtyUsers  int    // distinct users with events in the current WAL
	SegProfiles int    // profiles in the current segment
	SegBytes    int64  // byte size of the current segment
}

// WALInfo scans the WAL and reports its integrity; the segment's profile
// count and size come from its index frame, so the segment is never read
// whole. A non-nil error means corruption before the WAL's tail or in the
// segment's index; the returned info still describes the valid prefix.
func (s *Store) WALInfo() (WALInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := WALInfo{Seq: s.epoch.Load(), Gen: s.gen}
	data, err := s.readFileOrEmpty(s.walPath(s.gen))
	if err != nil {
		return info, fmt.Errorf("store: %w", err)
	}
	payloads, committed, err := scanRecords(data)
	if err != nil {
		err = fmt.Errorf("store: wal %d: %w", s.gen, err)
	}
	info.Records, info.Committed, info.Torn = len(payloads), int64(committed), int64(len(data)-committed)
	seen := make(map[string]bool)
	for _, p := range payloads {
		if ev, derr := decodeEvent(p); derr == nil {
			seen[ev.User] = true
		}
	}
	info.DirtyUsers = len(seen)
	if s.gen > 0 {
		if serr := s.segInfo(&info); err == nil {
			err = serr
		}
	}
	return info, err
}

// segInfo fills info's segment fields through a handle of its own, so a
// closed store keeps no reader (caller holds s.mu).
func (s *Store) segInfo(info *WALInfo) error {
	f, err := s.fsys.OpenFile(s.segPath(s.gen), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	idx, size, err := s.segIndex(f)
	info.SegProfiles, info.SegBytes = len(idx), size
	return err
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

func encodeProfilePayload(user, learner string, data []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(user)))
	payload = append(payload, user...)
	payload = binary.AppendUvarint(payload, uint64(len(learner)))
	payload = append(payload, learner...)
	payload = binary.AppendUvarint(payload, uint64(len(data)))
	payload = append(payload, data...)
	return payload
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
// (IEEE) of the payload, payload bytes — written in a single Write call
// so a torn append is always a contiguous prefix of one record.

func writeRecord(w io.Writer, payload []byte) error {
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// readRecord reads the next framed record from r into buf (replaced when
// too small) and verifies it as scanRecords would. It returns the whole
// frame, payload at [8:]; io.EOF means r ended cleanly before the record.
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
		return nil, errors.New("checksum mismatch")
	}
	return buf, nil
}

// scanRecords parses framed records from data, returning the records of
// the valid prefix — sub-slices of data, back to back from offset 0 with
// 8 bytes of framing each — and that prefix's byte length. A remainder
// that looks like one torn append — a truncated header, a record extending past EOF,
// or a checksum failure on the final record — is not an error: committed
// simply stops before it. Anything else (a bad checksum or implausible
// length with valid data beyond it) is corruption and returns an error,
// because records are written in a single call: any fully readable length
// field was fully written, so mid-file damage is never a torn append.
func scanRecords(data []byte) (payloads [][]byte, committed int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			return payloads, off, nil // torn header at tail
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen {
			return payloads, off, fmt.Errorf("implausible record size %d at offset %d", n, off)
		}
		// n ≤ maxRecordLen < MaxInt32: the int conversions below are safe
		// on 32-bit platforms.
		if int64(len(data)-off-8) < n {
			return payloads, off, nil // torn record at tail
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			if off+8+int(n) == len(data) {
				return payloads, off, nil // torn final record
			}
			return payloads, off, fmt.Errorf("checksum mismatch at offset %d", off)
		}
		payloads = append(payloads, payload)
		off += 8 + int(n)
	}
	return payloads, off, nil
}

// apply is the replay rule: it folds one journal event into its user's
// profile slot (nil while the user does not exist) and returns the slot's
// new content. A subscribe replaces whatever was there with a profile of
// the named learner (core.NewNamed) loaded from the event's state, an
// unsubscribe empties the slot, a feedback is observed — and is an error on
// an empty slot, because the broker never journals one. A segment record is
// replayed as the subscribe it stands for. Restore, RestoreUser and
// compaction differ only in how they walk the events and where they keep
// the slots. Its errors carry no "store:" prefix: every caller puts the
// record's position in front.
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
		l.Observe(ev.Vec, ev.Fd)
		return l, nil
	default:
		return nil, fmt.Errorf("unknown event type %d", ev.Type)
	}
}

// Restore reconstructs profiles from a Load result: segment profiles are
// rebuilt and unmarshalled, then the event log is replayed in append
// order. Recovery is all-or-nothing: any undecodable record, learner name
// outside core.NewNamed's set or inconsistency (feedback for an unknown
// user) is an error.
func Restore(profiles []ProfileRecord, events []Event) (map[string]*core.Profile, error) {
	out := make(map[string]*core.Profile, len(profiles))
	for i, p := range profiles {
		l, err := apply(nil, p.event())
		if err != nil {
			return nil, fmt.Errorf("store: profile %d: %w", i, err)
		}
		out[p.User] = l
	}
	for i, ev := range events {
		l, err := apply(out[ev.User], ev)
		if err != nil {
			return nil, fmt.Errorf("store: event %d: %w", i, err)
		}
		if l == nil {
			delete(out, ev.User)
		} else {
			out[ev.User] = l
		}
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

// Users lists the distinct users across a Load result, sorted.
func Users(profiles []ProfileRecord, events []Event) []string {
	seen := map[string]bool{}
	for _, p := range profiles {
		seen[p.User] = true
	}
	for _, ev := range events {
		if ev.Type == EventUnsubscribe {
			delete(seen, ev.User)
		} else {
			seen[ev.User] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
