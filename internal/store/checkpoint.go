package store

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"mmprofile/internal/core"
)

// CheckpointStats reports what one Checkpoint pass did.
type CheckpointStats struct {
	Profiles int   // live profiles in the new segment
	Carried  int   // of those, clean records carried forward verbatim
	Bytes    int64 // segment bytes written; 0 when the pass rewrote nothing
}

// Checkpoint compacts the journal once its dirty-profile count has reached
// minDirty (values < 1 are treated as 1): the WAL is replayed over the
// current segment inside the store — clean profiles are carried forward as
// raw bytes, dirty ones are rehydrated, updated, and re-serialized — and
// the result becomes the next immutable segment with a fresh, empty WAL.
// Below the threshold, and with nothing dirty, it does nothing. One
// manifest rename commits the new generation.
//
// Compacting from the journal rather than from caller-provided profiles
// means an append that lands mid-checkpoint can never be lost: it either
// makes the compaction pass or stays in the WAL that survives it. The
// durability order is strict: outgoing WAL fsync → segment contents fsync →
// segment rename → directory fsync → manifest rename → directory fsync →
// new WAL creation → directory fsync → stale-generation removal. A crash at
// any point leaves either the old generation or the new one fully
// recoverable.
//
// On success, every record appended before the call is durable. Replay
// refuses a learner name outside core.NewNamed's set, same as Restore.
func (s *Store) Checkpoint(minDirty int) (CheckpointStats, error) {
	var st CheckpointStats
	if s.opts.ReadOnly {
		return st, errors.New("store: read-only")
	}
	if minDirty < 1 {
		minDirty = 1
	}
	t0 := time.Now()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Claim the sync token: no group-commit pass may race the WAL swap (it
	// would fsync a closed handle).
	s.cmu.Lock()
	for s.syncing {
		s.cond.Wait()
	}
	if s.closed {
		s.cmu.Unlock()
		return st, errClosed
	}
	s.syncing = true
	s.cmu.Unlock()
	tokenHeld := true
	defer func() {
		if tokenHeld {
			s.cmu.Lock()
			s.syncing = false
			s.cond.Broadcast()
			s.cmu.Unlock()
		}
	}()

	// The journal stays locked until the WAL swap, so nothing can append
	// between the compaction read and the swap — which is exactly the
	// window where the old export-then-swap design could drop events.
	s.mu.Lock()
	locked := true
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	if s.wal == nil {
		return st, errClosed
	}
	if s.failed != nil {
		return st, s.failed
	}
	if len(s.walIdx) < minDirty {
		// Not dirty enough: no segment write, no manifest churn.
		return st, nil
	}
	gen := s.gen + 1

	// Phase 1: fsync the outgoing WAL (until the manifest commits it is the
	// only durable copy of its events), compact it over the segment, and
	// stage the new segment file. The manifest does not reference any of
	// this yet, so a crash mid-phase leaves only strays.
	ts := time.Now()
	if err := s.wal.Sync(); err != nil {
		s.failed = err
		return st, fmt.Errorf("store: %w", err)
	}
	s.m.fsyncs.Inc()
	s.m.fsyncLat.ObserveSince(ts)
	durableTo := s.recs

	var idx map[string]segRef
	var idxOff int64
	var cerr error
	err := s.stage(s.segPath(gen), func(w io.Writer) error {
		idx, idxOff, st.Carried, st.Bytes, cerr = s.compact(w)
		return cerr
	})
	if err != nil && err != cerr {
		err = fmt.Errorf("store: %w", err)
	}
	if err != nil {
		return CheckpointStats{}, err
	}
	st.Profiles = len(idx)
	// The renamed segment must be durable before the manifest may reference
	// it: a manifest entry pointing at an un-persisted directory entry would
	// read as data loss after a crash.
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return st, fmt.Errorf("store: %w", err)
	}

	// Phase 2: the commit point. A crash on either side of this rename
	// recovers a consistent store, just at different generations.
	epoch := s.epoch.Load() + 1
	if err := s.writeManifest(epoch, gen, idxOff); err != nil {
		return st, err
	}
	s.epoch.Store(epoch)

	// Phase 3: the in-memory flip and a fresh WAL. The manifest is
	// committed, so a failure here poisons the write path (reopen repairs)
	// instead of aborting the checkpoint. The index flips with the
	// generation, to the offsets this pass just wrote (openWAL starts the
	// new WAL's index), and the read handles go before cleanStrays removes
	// what they name.
	s.closeReaders()
	compacted := len(s.walIdx)
	old := s.wal
	s.gen, s.segIdx, s.idxOff, s.wal = gen, idx, idxOff, nil
	err = s.openWAL()
	old.Close()
	if err != nil {
		s.failed = err
	} else {
		s.m.dirtyProfiles.Add(-float64(compacted))
		// Persist the new WAL's directory entry.
		if err = s.fsys.SyncDir(s.dir); err != nil {
			err = fmt.Errorf("store: %w", err)
		}
	}
	s.mu.Unlock()
	locked = false

	// Advance the durability watermark (the events are segment-durable
	// now) and release the token.
	s.cmu.Lock()
	s.syncing = false
	tokenHeld = false
	if durableTo > s.durable {
		s.durable = durableTo
	}
	s.cond.Broadcast()
	s.cmu.Unlock()

	s.cleanStrays()
	s.m.checkpoints.Inc()
	s.m.checkpointBytes.Set(float64(st.Bytes))
	s.m.checkpointLat.ObserveSince(t0)
	return st, err
}

// stage writes a file through fill into a temp file, fsyncs it and renames
// it to path: until a manifest names the file it is a stray. The caller fsyncs the directory. Errors carry no "store:"
// prefix, fill's included.
func (s *Store) stage(path string, fill func(io.Writer) error) error {
	tmp, err := s.fsys.CreateTemp(s.dir, "stage-*.tmp")
	if err != nil {
		return err
	}
	if err = fill(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		s.fsys.Remove(tmp.Name())
	}
	return err
}

// compact replays the committed WAL over the current segment and streams
// the next segment to w, returning its offset index, where its index frame
// starts and its size (caller holds s.mu). Clean users' frames are copied
// from the old segment file one at a time, checksums and names verified;
// users touched by the WAL are rehydrated (core.NewNamed), replayed, and
// re-serialized — so a checkpoint holds the dirty profiles and never the
// whole store. Segment order is preserved, with users first seen in the WAL
// appended in event order, so compaction is deterministic. The index frame
// follows the last record.
func (s *Store) compact(w io.Writer) (idx map[string]segRef, idxOff int64, carried int, size int64, err error) {
	if err := s.indexJournal(); err != nil {
		return nil, 0, 0, 0, err
	}
	payloads, err := s.records(walFile)
	if err != nil {
		return nil, 0, 0, 0, err
	}

	// One slot per user the WAL touches: the profile apply has made of the
	// user's events so far (nil once unsubscribed).
	order := make([]string, 0, len(s.segIdx))
	for user := range s.segIdx {
		order = append(order, user)
	}
	sort.Slice(order, func(i, j int) bool { return s.segIdx[order[i]].off < s.segIdx[order[j]].off })
	touched := make(map[string]*core.Profile)
	var buf []byte
	for i, p := range payloads {
		ev, err := decodeEvent(p)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: wal %d record %d: %w", s.gen, i, err)
		}
		l, seen := touched[ev.User]
		ref, inSeg := s.segIdx[ev.User]
		switch {
		case ev.Type == EventSubscribe && !seen && !inSeg:
			order = append(order, ev.User)
		case ev.Type == EventFeedback && !seen && inSeg:
			// First touch of a segment profile: rehydrate it.
			if l, buf, err = s.segProfile(ev.User, ref, buf); err != nil {
				return nil, 0, 0, 0, err
			}
		case ev.Type == EventUnsubscribe && !seen && !inSeg:
			continue // of a user the store never held: nothing to drop
		}
		if l, err = apply(l, ev); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: wal %d record %d: %w", s.gen, i, err)
		}
		touched[ev.User] = l
	}

	idx = make(map[string]segRef, len(order))
	var entries []byte
	for _, user := range order {
		l, dirty := touched[user]
		ref := s.segIdx[user]
		switch {
		case !dirty: // clean: the old frame, verbatim
			if buf, err = s.readAt(segFile, ref.off, ref.n, buf); err == nil {
				err = checkRecordUser(buf[8:], user)
			}
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: segment %d offset %d: %w", s.gen, ref.off, err)
			}
			if _, err := w.Write(buf); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: %w", err)
			}
			carried++
		case l == nil:
			continue // unsubscribed: dropped from the new segment
		default:
			data, err := l.MarshalBinary()
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: serializing %q: %w", user, err)
			}
			learner := l.Name()
			frame := newFrame(lenBytesSize(len(user)) + lenBytesSize(len(learner)) + lenBytesSize(len(data)))
			frame = appendProfilePayload(frame, user, learner, data)
			if err := writeFrame(w, frame); err != nil {
				return nil, 0, 0, 0, err
			}
			ref = segRef{n: uint32(len(frame) - 8)}
		}
		ref.off = size
		idx[user] = ref
		entries = appendSegIndexEntry(entries, user, ref.n)
		size += 8 + int64(ref.n)
	}
	index := appendSegIndex(newFrame(uvarintSize(uint64(len(idx)))+len(entries)), len(idx), entries)
	if err := writeFrame(w, index); err != nil {
		return nil, 0, 0, 0, err
	}
	return idx, size, carried, size + int64(len(index)), nil
}
