// Package store persists user profiles, the long-lived state of a
// filtering system ("profile vectors are stored and maintained for long
// periods of time", paper Section 4.3). It scales the classic checkpoint
// + write-ahead-log design past one machine's RAM by sharding it
// (DESIGN.md §14):
//
//   - users hash (FNV-1a) to one of N WAL lanes; each lane appends
//     feedback/subscribe/unsubscribe events to its own log
//     (wal-<lane>-<gen>.log) and tracks its own dirty-profile set;
//   - each lane's profiles live in an immutable segment
//     (seg-<lane>-<gen>.db), rewritten only when the lane is dirty enough
//     — Checkpoint compacts a lane's WAL into its segment instead of
//     rewriting every profile in the store;
//   - a MANIFEST file names the current generation of every lane and is
//     replaced atomically (temp + fsync + rename + directory fsync), so a
//     multi-lane checkpoint commits all lanes at once or not at all.
//
// Recovery loads each lane's manifest-referenced segment and replays its
// log; the learners' update rules are deterministic, so replay
// reconstructs the exact pre-crash profiles, and RestoreUser replays a
// single user on demand for lazy hydration. Every record is
// length-prefixed and CRC32-guarded. A torn tail (crash mid-append) is
// detected at Open and truncated away before any new append can land
// behind it; corruption anywhere before the tail is refused, never
// silently skipped.
//
// Durability is group-committed (DESIGN.md §10): with Options.Durable,
// each Append* returns only after an fsync covers its record. One leader
// at a time fsyncs every lane with unacknowledged records — in parallel
// when several lanes are dirty — so concurrent appenders coalesce onto a
// single leader pass no matter which lanes they landed in.
// Options.SyncInterval instead bounds the loss window with a background
// flusher, and Sync() is always available as an explicit barrier. All
// filesystem access goes through internal/faultfs, so the crash-matrix
// test can kill the store at every syscall boundary; production runs on
// bare *os.File handles.
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

	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/trace"
	"mmprofile/internal/vsm"
)

// ProfileRecord is one user's serialized profile in a segment.
type ProfileRecord struct {
	User    string
	Learner string // registry name, used to reconstruct the right type
	Data    []byte // learner's MarshalBinary output
}

// EventType tags a log record.
type EventType byte

const (
	// EventFeedback is a relevance judgment (user, fd, document vector).
	EventFeedback EventType = iota
	// EventSubscribe is a new subscription (user, learner name, and the
	// learner's initial serialized state, e.g. a keyword seed).
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

// DefaultLanes is the lane count for stores created without an explicit
// Options.Lanes. An existing manifest always pins the count.
const DefaultLanes = 4

// Options configures a Store.
type Options struct {
	// Durable makes every Append* return only once an fsync covers its
	// record. Appenders arriving while a sync is in flight coalesce onto
	// the next leader pass (group commit), so the cost under concurrency
	// is far below one fsync per append.
	Durable bool
	// SyncInterval, when > 0 and Durable is off, bounds the loss window
	// instead: appends return immediately and a background flusher fsyncs
	// the lanes every interval. Sync() remains an explicit barrier.
	SyncInterval time.Duration
	// ReadOnly opens the store for inspection: no torn-tail repair, no
	// log handles, no manifest write, and Load tolerates a torn tail the way
	// recovery would. Appends, Checkpoint, and Sync fail. mmstore uses
	// this so inspecting a crashed state directory never mutates it.
	ReadOnly bool
	// Lanes is the WAL lane (shard) count used when creating a store from
	// scratch. An existing manifest pins the count and this value is
	// ignored. <= 0 means DefaultLanes.
	Lanes int
	// FS overrides the filesystem — fault injection in tests
	// (faultfs.Sim). Nil means the real OS filesystem.
	FS faultfs.FS
	// Metrics, when non-nil, receives the mm_store_* instrument family
	// (append/fsync/checkpoint/group-commit latencies and counts) and the
	// per-lane attribution dimensions (DESIGN.md §8): WAL-append weight in
	// bytes and fsync counts, keyed by lane — the skew view of which lanes
	// the FNV routing is actually loading. Nil disables instrumentation
	// entirely. mmserver shares one registry between the broker and the
	// store.
	Metrics *metrics.Registry
}

// Store is a directory-backed profile store. Safe for concurrent use.
type Store struct {
	opts Options
	fsys faultfs.FS
	m    storeMetrics // all-nil (no-op) when opts.Metrics is nil
	dir  string

	lanes []*lane
	epoch atomic.Uint64 // manifest commit counter

	// cmu guards the group-commit state: the global sync token plus every
	// lane's durability watermark and sticky fsync error. Lock
	// discipline: no goroutine ever waits for cmu while holding a lane
	// mutex (appenders release their lane before joining a commit), so
	// the sync leader may take lane mutexes briefly while the token is
	// claimed.
	cmu     sync.Mutex
	cond    *sync.Cond
	syncing bool // sync token: one leader pass (or one layout change) at a time
	closed  bool

	// ckptMu serializes checkpoints and manifest writes; lane generations
	// only change under it.
	ckptMu sync.Mutex

	// Per-lane attribution: append weight and fsync counts keyed by
	// pre-rendered lane names, so the hot path offers a resident string
	// with zero allocations. All nil (no-op) when Options.Metrics is nil.
	laneKeys  []string
	topAppend *metrics.Sketch[string]
	topFsync  *metrics.Sketch[string]

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
// torn lane tail left by a crash mid-append is truncated here, before any
// append can land behind it; mid-log corruption makes Open fail rather
// than risk silently dropping everything after the damage. A directory
// without a manifest that holds pre-manifest files (wal-<seq>.log,
// snap-<seq>.db) is refused untouched: initializing it as a fresh store
// would discard a journal some earlier release acknowledged.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{opts: opts, fsys: fsys, dir: dir}
	s.cond = sync.NewCond(&s.cmu)
	if opts.Metrics != nil {
		s.m = RegisterMetrics(opts.Metrics)
	}

	mf, found, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	if found {
		s.epoch.Store(mf.epoch)
		s.lanes = makeLanes(len(mf.gens))
		for i, ln := range s.lanes {
			ln.gen, ln.idxOff = mf.gens[i], mf.idx[i]
		}
	} else {
		if err := detectLegacy(fsys, dir); err != nil {
			return nil, err
		}
		s.lanes = makeLanes(laneCount(opts))
		if !opts.ReadOnly { // an empty directory is inspected as it is
			s.epoch.Store(1)
			if err := s.writeManifest(s.manifestNow()); err != nil {
				return nil, err
			}
		}
	}
	s.m.lanes.Set(float64(len(s.lanes)))
	if opts.Metrics != nil {
		s.laneKeys = make([]string, len(s.lanes))
		for i := range s.lanes {
			s.laneKeys[i] = fmt.Sprintf("lane-%d", i)
		}
		s.topAppend = metrics.TopK[string](opts.Metrics, "lane_append_bytes",
			"WAL bytes appended, by lane.",
			2*len(s.lanes), metrics.FormatString)
		s.topFsync = metrics.TopK[string](opts.Metrics, "lane_fsyncs",
			"WAL fsyncs performed, by lane.",
			2*len(s.lanes), metrics.FormatString)
	}

	if !opts.ReadOnly {
		s.cleanStrays()
		recovered := 0
		for _, ln := range s.lanes {
			if err := s.openLaneWAL(ln); err != nil {
				s.closeLaneHandles()
				return nil, err
			}
			recovered += len(ln.walIdx)
		}
		s.m.dirtyProfiles.Set(float64(recovered))
		// Persist the lanes' directory entries (file creations, and any
		// torn-tail truncate's metadata) in one pass.
		if err := fsys.SyncDir(dir); err != nil {
			s.closeLaneHandles()
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

func laneCount(opts Options) int {
	n := opts.Lanes
	if n <= 0 {
		n = DefaultLanes
	}
	if n > maxLanes {
		n = maxLanes
	}
	return n
}

// closeLaneHandles abandons a half-constructed store's WAL handles.
func (s *Store) closeLaneHandles() {
	for _, ln := range s.lanes {
		if ln.wal != nil {
			ln.wal.Close()
			ln.wal = nil
		}
	}
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
			// Best-effort: a failure is sticky in the lane's syncErr and
			// surfaces on the next explicit barrier or durable operation.
			_ = s.Sync()
		case <-stop:
			return
		}
	}
}

// Close drains any in-flight group commit, flushes every lane, and closes
// the log handles. Safe to call twice.
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
	type fin struct {
		ln   *lane
		recs uint64
	}
	var fins []fin
	for _, ln := range s.lanes {
		ln.mu.Lock()
		ln.closeReaders()
		if ln.wal != nil {
			var lerr error
			if ln.failed == nil {
				lerr = ln.wal.Sync()
			}
			if cerr := ln.wal.Close(); lerr == nil {
				lerr = cerr
			}
			ln.wal = nil
			if lerr == nil {
				fins = append(fins, fin{ln, ln.recs})
			} else if err == nil {
				err = lerr
			}
		}
		ln.mu.Unlock()
	}

	s.cmu.Lock()
	s.syncing = false
	s.closed = true
	for _, f := range fins {
		if f.recs > f.ln.durable {
			f.ln.durable = f.recs
		}
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
// spans — store.wal_write for the serialized write under the lane lock and
// store.commit_wait for the group-commit fsync wait (durable mode only),
// the two very different reasons an append can be slow.
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

// AppendSubscribe records a new subscription together with the learner's
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
	ln := s.laneFor(user)
	ws := sp.ChildAt("store.wal_write", t0)
	ln.mu.Lock()
	if ln.wal == nil {
		ln.mu.Unlock()
		if s.opts.ReadOnly {
			return errors.New("store: read-only")
		}
		return errClosed
	}
	if ln.failed != nil {
		err := ln.failed
		ln.mu.Unlock()
		return err
	}
	if err := writeRecord(ln.wal, payload); err != nil {
		// A failed or short write leaves bytes of unknown extent in the
		// lane's file; any later append would land behind garbage. Poison
		// this lane's write path — reopening repairs via the torn-tail
		// scan. Other lanes keep accepting appends.
		ln.failed = err
		ln.mu.Unlock()
		ws.End()
		return err
	}
	refs := ln.walIdx[user]
	if refs == nil {
		s.m.dirtyProfiles.Add(1)
	}
	ln.walIdx[user] = append(refs, walRef{off: ln.walLen, n: uint32(len(payload)), typ: EventType(payload[0])})
	ln.walLen += int64(len(payload)) + 8
	ln.recs++
	pos := ln.recs
	ln.mu.Unlock()
	ws.SetInt("bytes", int64(len(payload))+8)
	ws.End()

	s.m.appends.Inc()
	if s.topAppend != nil {
		s.topAppend.Offer(s.laneKeys[ln.id], float64(len(payload))+8)
	}
	if s.opts.Durable {
		cw := sp.Child("store.commit_wait")
		err := s.waitDurable(ln, pos)
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
// to any lane before the call is fsynced, leading at most one group pass
// itself (and none when group commits already covered them).
func (s *Store) Sync() error {
	if s.opts.ReadOnly {
		return errors.New("store: read-only")
	}
	type point struct {
		ln  *lane
		pos uint64
	}
	points := make([]point, 0, len(s.lanes))
	for _, ln := range s.lanes {
		ln.mu.Lock()
		if ln.wal == nil {
			ln.mu.Unlock()
			return errClosed
		}
		points = append(points, point{ln, ln.recs})
		ln.mu.Unlock()
	}
	for _, p := range points {
		// The first wait's leader pass fsyncs every lane with pending
		// records, so the remaining waits almost always return instantly.
		if err := s.waitDurable(p.ln, p.pos); err != nil {
			return err
		}
	}
	return nil
}

// waitDurable blocks until ln's records 1..pos are covered by an
// acknowledged fsync. The first waiter to find no leader in flight claims
// the token and leads one pass over every lane with unacknowledged
// records; waiters that arrive mid-pass coalesce onto the next one. This
// is the group commit: under N concurrent durable appenders — across any
// mix of lanes — each leader pass acknowledges a whole batch.
func (s *Store) waitDurable(ln *lane, pos uint64) error {
	t0 := time.Now()
	s.cmu.Lock()
	for {
		if ln.durable >= pos {
			s.cmu.Unlock()
			s.m.groupWaitLat.ObserveSince(t0)
			return nil
		}
		if ln.syncErr != nil {
			err := ln.syncErr
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

// syncTarget is one lane the leader pass must fsync.
type syncTarget struct {
	ln  *lane
	f   faultfs.File
	to  uint64
	err error
}

// leadSync performs one group-commit pass: fsync every lane holding
// records beyond its durability watermark — in parallel when there are
// several — then advance all the watermarks at once. Caller holds the
// sync token (not cmu); the token keeps the log handles stable —
// Checkpoint and Close wait for it before swapping or closing WALs.
func (s *Store) leadSync() {
	var targets []*syncTarget
	for _, ln := range s.lanes {
		ln.mu.Lock()
		f, to := ln.wal, ln.recs
		ln.mu.Unlock()
		s.cmu.Lock()
		pending := ln.syncErr == nil && to > ln.durable
		s.cmu.Unlock()
		if pending {
			tg := &syncTarget{ln: ln, f: f, to: to}
			if f == nil {
				tg.err = errClosed
			}
			targets = append(targets, tg)
		}
	}

	if len(targets) == 1 {
		s.syncLane(targets[0])
	} else if len(targets) > 1 {
		var wg sync.WaitGroup
		for _, tg := range targets {
			wg.Add(1)
			go func(tg *syncTarget) {
				defer wg.Done()
				s.syncLane(tg)
			}(tg)
		}
		wg.Wait()
	}

	s.cmu.Lock()
	s.syncing = false
	var batch uint64
	for _, tg := range targets {
		if tg.err != nil {
			tg.ln.syncErr = tg.err
		} else if tg.to > tg.ln.durable {
			batch += tg.to - tg.ln.durable
			tg.ln.durable = tg.to
		}
	}
	if batch > 0 {
		s.m.groupBatches.Inc()
		s.m.groupRecords.Add(int64(batch))
		s.m.groupBatchRecs.Observe(float64(batch))
	}
	s.cond.Broadcast()
	s.cmu.Unlock()
}

func (s *Store) syncLane(tg *syncTarget) {
	if tg.err != nil {
		return
	}
	t0 := time.Now()
	if tg.err = tg.f.Sync(); tg.err == nil {
		s.m.fsyncs.Inc()
		s.m.fsyncLat.ObserveSince(t0)
		if s.topFsync != nil {
			s.topFsync.Offer(s.laneKeys[tg.ln.id], 1)
		}
	}
}

// Load reads every lane's segment and log, lane by lane under each lane's
// lock, so a concurrent append can never be misread as a torn tail and
// silently dropped. Profiles and events are concatenated in lane order;
// a user's records all live in one lane, so per-user order — the only
// order replay depends on — is exactly the append order. In ReadOnly mode
// a genuinely torn tail is tolerated exactly as recovery would tolerate
// it; in read-write mode the tails were already truncated at Open, so any
// trailing garbage is an error.
func (s *Store) Load() ([]ProfileRecord, []Event, error) {
	var profiles []ProfileRecord
	var events []Event
	for _, ln := range s.lanes {
		ln.mu.Lock()
		ps, evs, err := s.loadLane(ln)
		ln.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
		profiles = append(profiles, ps...)
		events = append(events, evs...)
	}
	return profiles, events, nil
}

// loadLane decodes one lane's segment and committed WAL (caller holds
// ln.mu).
func (s *Store) loadLane(ln *lane) ([]ProfileRecord, []Event, error) {
	segs, err := s.laneRecords(ln, segFile)
	if err != nil {
		return nil, nil, err
	}
	profiles := make([]ProfileRecord, 0, len(segs))
	for i, payload := range segs {
		rec, err := decodeProfileRecord(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("store: lane %d segment %d record %d: %w", ln.id, ln.gen, i, err)
		}
		profiles = append(profiles, rec)
	}
	payloads, err := s.laneRecords(ln, walFile)
	if err != nil {
		return nil, nil, err
	}
	var events []Event
	for i, payload := range payloads {
		ev, err := decodeEvent(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("store: lane %d wal %d record %d: %w", ln.id, ln.gen, i, err)
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

// LaneInfo describes one lane's on-disk state, for inspection tooling
// (mmstore lanes).
type LaneInfo struct {
	Lane        int    // lane id
	Gen         uint64 // manifest-committed generation
	Records     int    // complete, checksummed WAL records
	Committed   int64  // byte length of the WAL's valid prefix
	Torn        int64  // trailing bytes past the valid prefix (crash residue)
	DirtyUsers  int    // distinct users with events in the current WAL
	SegProfiles int    // profiles in the current segment
	SegBytes    int64  // byte size of the current segment
}

// LaneInfos scans every lane's WAL and reports its integrity; a segment's
// profile count and size come from its index frame (or, without one, from
// streaming its records), so no segment is read whole. A non-nil error
// means corruption before some lane's tail or in a segment; the returned
// infos still describe every lane's valid prefix.
func (s *Store) LaneInfos() ([]LaneInfo, error) {
	var firstErr error
	out := make([]LaneInfo, 0, len(s.lanes))
	for _, ln := range s.lanes {
		ln.mu.Lock()
		li := LaneInfo{Lane: ln.id, Gen: ln.gen}
		data, err := s.readFileOrEmpty(s.walPath(ln, ln.gen))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("store: lane %d: %w", ln.id, err)
			}
		} else {
			payloads, committed, serr := scanRecords(data)
			li.Records = len(payloads)
			li.Committed = int64(committed)
			li.Torn = int64(len(data) - committed)
			seen := make(map[string]bool)
			for _, p := range payloads {
				if ev, derr := decodeEvent(p); derr == nil {
					seen[ev.User] = true
				}
			}
			li.DirtyUsers = len(seen)
			if serr != nil && firstErr == nil {
				firstErr = fmt.Errorf("store: lane %d wal %d: %w", ln.id, ln.gen, serr)
			}
		}
		if ln.gen > 0 {
			if err := s.segInfo(ln, &li); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		ln.mu.Unlock()
		out = append(out, li)
	}
	return out, firstErr
}

// segInfo fills li's segment fields through a handle of its own, so a
// closed store's lanes keep no reader (caller holds ln.mu).
func (s *Store) segInfo(ln *lane, li *LaneInfo) error {
	f, err := s.fsys.OpenFile(s.segPath(ln, ln.gen), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	idx, size, err := s.segIndex(ln, f)
	li.SegProfiles, li.SegBytes = len(idx), size
	return err
}

// WALInfo describes the journal's aggregate on-disk integrity across all
// lanes, for inspection tooling (mmstore) and the flight recorder.
type WALInfo struct {
	Seq       uint64 // manifest epoch (commit count)
	Lanes     int    // lane count
	Records   int    // complete, checksummed records across all lane WALs
	Committed int64  // byte length of the valid prefixes
	Torn      int64  // trailing bytes past the valid prefixes (crash residue)
}

// WALInfo aggregates LaneInfos. A non-nil error means corruption before
// some lane's tail; the returned info still describes the valid prefixes.
func (s *Store) WALInfo() (WALInfo, error) {
	lis, err := s.LaneInfos()
	info := WALInfo{Seq: s.epoch.Load(), Lanes: len(lis)}
	for _, li := range lis {
		info.Records += li.Records
		info.Committed += li.Committed
		info.Torn += li.Torn
	}
	return info, err
}

// Health rolls up the store's sticky failure state without touching disk,
// worst lane first: a write-path poison on any lane, then closed, then
// any lane's sticky fsync failure. Nil means every lane's write path is
// healthy. ReadOnly stores report a degraded-style error since they
// cannot accept appends. Cheap enough to poll from /readyz — one mutex
// acquisition per lane plus one for the commit state, no I/O.
func (s *Store) Health() error {
	if s.opts.ReadOnly {
		return errors.New("store: opened read-only")
	}
	var failed error
	for _, ln := range s.lanes {
		ln.mu.Lock()
		if ln.failed != nil && failed == nil {
			failed = fmt.Errorf("store: lane %d: %w", ln.id, ln.failed)
		}
		ln.mu.Unlock()
	}
	if failed != nil {
		return failed
	}
	var syncErr error
	s.cmu.Lock()
	closed := s.closed
	for _, ln := range s.lanes {
		if ln.syncErr != nil && syncErr == nil {
			syncErr = fmt.Errorf("store: lane %d: %w", ln.id, ln.syncErr)
		}
	}
	s.cmu.Unlock()
	if closed {
		return errClosed
	}
	return syncErr
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

// restorable is the serialization contract learners must meet to be
// persisted (core.Profile, rocchio.Rocchio, rocchio.NRN all do).
type restorable interface {
	UnmarshalBinary([]byte) error
}

// newRestored builds a learner of the named type and loads state into it.
// Its errors, like apply's, carry no "store:" prefix: every caller puts the
// record's position in front.
func newRestored(user, learner string, state []byte) (filter.Learner, error) {
	l, err := filter.New(learner)
	if err != nil {
		return nil, fmt.Errorf("restore %q: %w", user, err)
	}
	if len(state) == 0 {
		return l, nil
	}
	r, ok := l.(restorable)
	if !ok {
		return nil, fmt.Errorf("learner %q is not restorable", learner)
	}
	if err := r.UnmarshalBinary(state); err != nil {
		return nil, fmt.Errorf("restore %q: %w", user, err)
	}
	return l, nil
}

// apply is the replay rule: it folds one journal event into its user's
// learner slot (nil while the user does not exist) and returns the slot's
// new content. A subscribe replaces whatever was there with a fresh learner
// from the filter registry, an unsubscribe empties the slot, a feedback is
// observed — and is an error on an empty slot, because the broker never
// journals one. Restore, RestoreUser and compaction differ only in how they
// walk the events and where they keep the slots.
func apply(l filter.Learner, ev Event) (filter.Learner, error) {
	switch ev.Type {
	case EventSubscribe:
		return newRestored(ev.User, ev.Learner, ev.State)
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

// Restore reconstructs learners from a Load result: segment profiles are
// instantiated via the filter registry and unmarshalled, then the event
// log is replayed in order. Events arrive concatenated lane by lane, but
// a user's events all live in one lane, so the per-user order — the only
// order deterministic replay depends on — is the append order. Recovery
// is all-or-nothing: any undecodable record or inconsistency (feedback
// for an unknown user) is an error.
func Restore(profiles []ProfileRecord, events []Event) (map[string]filter.Learner, error) {
	out := make(map[string]filter.Learner, len(profiles))
	for i, p := range profiles {
		l, err := newRestored(p.User, p.Learner, p.Data)
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

// RestoredUsers lists the surviving users, sorted, from the lanes' offset
// indexes alone — no profile is read and no learner instantiated. It is the
// boot path for lazy hydration: pubsub registers one evicted stub per name
// and hydrates on first touch.
func (s *Store) RestoredUsers() ([]string, error) {
	var out []string
	for _, ln := range s.lanes {
		ln.mu.Lock()
		err := s.indexLane(ln)
		if err == nil {
			for user := range ln.segIdx {
				if _, touched := ln.walIdx[user]; !touched {
					out = append(out, user)
				}
			}
			for user, refs := range ln.walIdx {
				// The user's last subscribe or unsubscribe decides; with
				// feedback only, the segment's entry stands.
				i := len(refs) - 1
				for i >= 0 && refs[i].typ == EventFeedback {
					i--
				}
				_, inSeg := ln.segIdx[user]
				if (i < 0 && inSeg) || (i >= 0 && refs[i].typ == EventSubscribe) {
					out = append(out, user)
				}
			}
		}
		ln.mu.Unlock()
		if err != nil {
			return nil, err
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
