package store

import (
	"encoding"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"mmprofile/internal/filter"
)

// CheckpointStats reports what one Checkpoint pass did.
type CheckpointStats struct {
	Lanes     int   // lanes in the store
	Rewritten int   // dirty lanes compacted into a new segment
	Skipped   int   // dirty lanes left alone (below the minDirty threshold)
	Clean     int   // lanes with no events since their last segment
	Profiles  int   // live profiles across the rewritten segments
	Carried   int   // of those, clean records carried forward verbatim
	Bytes     int64 // segment bytes written by this pass
}

// Checkpoint compacts every lane whose dirty-profile count has reached
// minDirty (values < 1 are treated as 1): the lane's WAL is replayed over
// its current segment inside the store — clean profiles are carried
// forward as raw bytes, dirty ones are rehydrated, updated, and
// re-serialized — and the result becomes the lane's next immutable
// segment with a fresh, empty WAL. Lanes below the threshold keep
// accumulating; clean lanes cost nothing. One manifest rename commits all
// rewritten lanes atomically.
//
// Compacting from the journal rather than from caller-provided profiles
// means an append that lands mid-checkpoint can never be lost: it either
// makes the compaction pass or stays in the WAL that survives it. The
// durability order per rewritten lane is strict: outgoing WAL fsync →
// segment contents fsync → segment rename → directory fsync → manifest
// rename → directory fsync → new WAL creation → directory fsync →
// stale-generation removal. A crash at any point leaves either the old
// generations or the new ones fully recoverable.
//
// On success, every record appended to a rewritten lane before the call
// is durable. Replay requires the lanes' learner types to be registered
// with the filter registry, same as Restore.
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

	// Claim the sync token: no group-commit pass may race the WAL swaps
	// (it would fsync closed handles).
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

	st.Lanes = len(s.lanes)

	type flip struct {
		ln        *lane
		gen       uint64            // new generation
		idx       map[string]segRef // the new segment's offset index
		idxOff    int64             // where its index frame starts
		durableTo uint64
	}
	var flips []*flip
	var locked []*lane
	unlockAll := func() {
		for _, ln := range locked {
			ln.mu.Unlock()
		}
		locked = nil
	}
	defer unlockAll()

	// Select lanes. The chosen lanes stay locked until their WAL swap, so
	// nothing can append between the compaction read and the swap — which
	// is exactly the window where the old export-then-swap design could
	// drop events. Appends to unchosen lanes keep flowing (durable
	// waiters stall until the token is released, as they did under the
	// old whole-store snapshot).
	for _, ln := range s.lanes {
		ln.mu.Lock()
		locked = append(locked, ln)
		if ln.wal == nil {
			return st, errClosed
		}
		if ln.failed != nil {
			return st, fmt.Errorf("store: lane %d: %w", ln.id, ln.failed)
		}
		if len(ln.walIdx) == 0 {
			st.Clean++
			ln.mu.Unlock()
			locked = locked[:len(locked)-1]
			continue
		}
		if len(ln.walIdx) < minDirty {
			st.Skipped++
			s.m.ckptLanesSkipped.Inc()
			ln.mu.Unlock()
			locked = locked[:len(locked)-1]
			continue
		}
		flips = append(flips, &flip{ln: ln, gen: ln.gen + 1})
	}
	if len(flips) == 0 {
		// Nothing dirty enough anywhere: no segment writes, no manifest
		// churn — the incremental win over the old full rewrite.
		return st, nil
	}

	// Phase 1, per lane: fsync the outgoing WAL (until the manifest
	// commits it is the only durable copy of its events), compact it over
	// the segment, and stage the new segment file. The manifest does not
	// reference any of this yet, so a crash mid-phase leaves only strays.
	for _, fl := range flips {
		ln := fl.ln
		ts := time.Now()
		if err := ln.wal.Sync(); err != nil {
			ln.failed = err
			return st, fmt.Errorf("store: lane %d: %w", ln.id, err)
		}
		s.m.fsyncs.Inc()
		s.m.fsyncLat.ObserveSince(ts)
		fl.durableTo = ln.recs

		tmp, err := s.fsys.CreateTemp(s.dir, "seg-*.tmp")
		if err != nil {
			return st, fmt.Errorf("store: %w", err)
		}
		idx, idxOff, carried, size, werr := s.compactLane(ln, tmp)
		if werr == nil {
			if werr = tmp.Sync(); werr != nil {
				werr = fmt.Errorf("store: %w", werr)
			}
		}
		if cerr := tmp.Close(); werr == nil && cerr != nil {
			werr = fmt.Errorf("store: %w", cerr)
		}
		if werr == nil {
			werr = s.fsys.Rename(tmp.Name(), s.segPath(ln, fl.gen))
		}
		if werr != nil {
			s.fsys.Remove(tmp.Name())
			return st, werr
		}
		fl.idx, fl.idxOff = idx, idxOff
		st.Profiles += len(idx)
		st.Carried += carried
		st.Bytes += size
	}
	// The renamed segments must be durable before the manifest may
	// reference them: a manifest entry pointing at an un-persisted
	// directory entry would read as data loss after a crash.
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return st, fmt.Errorf("store: %w", err)
	}

	// Phase 2: the commit point. One manifest rename flips every
	// rewritten lane to its new generation atomically — a crash on either
	// side of this rename recovers a consistent store, just at different
	// generations.
	mf := s.manifestNow()
	for _, fl := range flips {
		mf.gens[fl.ln.id], mf.idx[fl.ln.id] = fl.gen, fl.idxOff
	}
	mf.epoch = s.epoch.Load() + 1
	if err := s.writeManifest(mf); err != nil {
		return st, err
	}
	s.epoch.Store(mf.epoch)

	// Phase 3: in-memory flips and fresh WALs. The manifest is committed,
	// so a failure here poisons its lane (reopen repairs) instead of
	// aborting the checkpoint.
	var firstErr error
	for _, fl := range flips {
		ln := fl.ln
		old := ln.wal
		// The index flips with the generation, to the offsets this pass
		// just wrote (openLaneWAL below starts the new WAL's index), and the
		// read handles go before cleanStrays removes what they name.
		ln.closeReaders()
		compacted := len(ln.walIdx)
		ln.gen, ln.segIdx, ln.idxOff = fl.gen, fl.idx, fl.idxOff
		ln.wal = nil
		if err := s.openLaneWAL(ln); err != nil {
			ln.failed = err
			if firstErr == nil {
				firstErr = err
			}
			old.Close()
			continue
		}
		old.Close()
		s.m.dirtyProfiles.Add(-float64(compacted))
		st.Rewritten++
		s.m.ckptLanesRewritten.Inc()
	}
	// Persist the new WALs' directory entries.
	if err := s.fsys.SyncDir(s.dir); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("store: %w", err)
	}
	unlockAll()

	// Advance the rewritten lanes' durability watermarks (their events
	// are segment-durable now) and release the token.
	s.cmu.Lock()
	s.syncing = false
	tokenHeld = false
	for _, fl := range flips {
		if fl.durableTo > fl.ln.durable {
			fl.ln.durable = fl.durableTo
		}
	}
	s.cond.Broadcast()
	s.cmu.Unlock()

	s.cleanStrays()
	s.m.checkpoints.Inc()
	s.m.checkpointBytes.Set(float64(st.Bytes))
	s.m.checkpointLat.ObserveSince(t0)
	return st, firstErr
}

// compactLane replays ln's committed WAL over its current segment and
// streams the next segment to w, returning its offset index, where its
// index frame starts and its size (caller holds ln.mu). Clean users' frames
// are copied from the old segment file one at a time, checksums and names
// verified; users touched by the WAL are rehydrated through the filter
// registry, replayed, and re-serialized — so a checkpoint holds the lane's
// dirty profiles and never the lane. Segment order is preserved, with users
// first seen in the WAL appended in event order, so compaction is
// deterministic. The index frame follows the last record.
func (s *Store) compactLane(ln *lane, w io.Writer) (idx map[string]segRef, idxOff int64, carried int, size int64, err error) {
	if err := s.indexLane(ln); err != nil {
		return nil, 0, 0, 0, err
	}
	payloads, err := s.laneRecords(ln, walFile)
	if err != nil {
		return nil, 0, 0, 0, err
	}

	// One slot per user the WAL touches: the learner apply has folded the
	// user's events into so far (nil once unsubscribed) and its registry
	// name, from the subscribe event or the segment record.
	type slot struct {
		l     filter.Learner
		lname string
	}
	order := make([]string, 0, len(ln.segIdx))
	for user := range ln.segIdx {
		order = append(order, user)
	}
	sort.Slice(order, func(i, j int) bool { return ln.segIdx[order[i]].off < ln.segIdx[order[j]].off })
	touched := make(map[string]slot)
	var buf []byte
	for i, p := range payloads {
		ev, err := decodeEvent(p)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: lane %d wal %d record %d: %w", ln.id, ln.gen, i, err)
		}
		sl, seen := touched[ev.User]
		ref, inSeg := ln.segIdx[ev.User]
		switch {
		case ev.Type == EventSubscribe:
			sl.lname = ev.Learner
			if !seen && !inSeg {
				order = append(order, ev.User)
			}
		case ev.Type == EventFeedback && !seen && inSeg:
			// First touch of a segment profile: rehydrate it.
			if sl.l, sl.lname, buf, err = s.segLearner(ln, ev.User, ref, buf); err != nil {
				return nil, 0, 0, 0, err
			}
		case ev.Type == EventUnsubscribe && !seen && !inSeg:
			continue // of a user this lane never held: nothing to drop
		}
		if sl.l, err = apply(sl.l, ev); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("store: lane %d wal %d record %d: %w", ln.id, ln.gen, i, err)
		}
		touched[ev.User] = sl
	}

	idx = make(map[string]segRef, len(order))
	var entries []byte
	for _, user := range order {
		sl, dirty := touched[user]
		ref := ln.segIdx[user]
		switch {
		case !dirty: // clean: the old frame, verbatim
			if buf, err = s.readAt(ln, segFile, ref.off, ref.n, buf); err == nil {
				err = checkRecordUser(buf[8:], user)
			}
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: lane %d segment %d offset %d: %w", ln.id, ln.gen, ref.off, err)
			}
			if _, err := w.Write(buf); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: %w", err)
			}
			carried++
		case sl.l == nil:
			continue // unsubscribed: dropped from the new segment
		default:
			m, ok := sl.l.(encoding.BinaryMarshaler)
			if !ok {
				return nil, 0, 0, 0, fmt.Errorf("store: learner %q for %q is not serializable", sl.lname, user)
			}
			data, err := m.MarshalBinary()
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("store: serializing %q: %w", user, err)
			}
			payload := encodeProfilePayload(user, sl.lname, data)
			if err := writeRecord(w, payload); err != nil {
				return nil, 0, 0, 0, err
			}
			ref = segRef{n: uint32(len(payload))}
		}
		ref.off = size
		idx[user] = ref
		entries = appendSegIndexEntry(entries, user, ref.n)
		size += 8 + int64(ref.n)
	}
	index := encodeSegIndex(len(idx), entries)
	if err := writeRecord(w, index); err != nil {
		return nil, 0, 0, 0, err
	}
	return idx, size, carried, size + 8 + int64(len(index)), nil
}
