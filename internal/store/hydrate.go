package store

import (
	"fmt"

	"mmprofile/internal/core"
)

// RestoreUser rebuilds one user's profile from durable state: the user's
// record in the segment (if any) plus a replay of the user's events in the
// current WAL. MM's update rules are
// deterministic and the journal is written before any in-heap state
// mutates, so the result is bit-identical to the profile the broker would
// hold had the user never been evicted — this is the hydration half of
// the pubsub LRU residency bound. found is false when the user does not
// exist (or its last event is an unsubscribe).
//
// Cost is what the user's own records cost, whatever else the store holds:
// the offset index (journal.go) names the user's segment record and its
// events in the current WAL, and each is pread and checksummed on its
// own. mm_store_restore_read_bytes_total counts the bytes.
func (s *Store) RestoreUser(user string) (*core.Profile, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.indexJournal(); err != nil {
		return nil, false, err
	}
	var l *core.Profile
	var buf []byte // reused: each record is consumed before the next read
	if ref, ok := s.segIdx[user]; ok {
		var err error
		if l, buf, err = s.segProfile(user, ref, buf); err != nil {
			return nil, false, err
		}
		s.m.restoreReadBytes.Add(int64(len(buf)))
	}
	for _, ref := range s.walIdx[user] {
		frame, err := s.readAt(walFile, ref.off, ref.n, buf)
		if err != nil {
			return nil, false, err
		}
		buf = frame
		s.m.restoreReadBytes.Add(int64(len(frame)))
		ev, err := decodeEvent(frame[8:])
		if err == nil {
			l, err = apply(l, ev)
		}
		if err != nil {
			return nil, false, fmt.Errorf("store: wal %d offset %d: %w", s.gen, ref.off, err)
		}
	}
	if l != nil {
		s.m.userRestores.Inc()
	}
	return l, l != nil, nil
}

// segProfile preads user's segment record, which the index places at ref,
// and rebuilds its profile (caller holds s.mu). A record that names
// another user is refused. It also returns the frame read, for reuse as
// buf.
func (s *Store) segProfile(user string, ref segRef, buf []byte) (*core.Profile, []byte, error) {
	frame, err := s.readAt(segFile, ref.off, ref.n, buf)
	if err != nil {
		return nil, nil, err
	}
	rec, err := decodeProfileRecord(frame[8:])
	if err == nil && rec.User != user {
		err = fmt.Errorf("record is %q's, the index names %q", rec.User, user)
	}
	var l *core.Profile
	if err == nil {
		l, err = apply(nil, rec.event())
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: segment %d offset %d: %w", s.gen, ref.off, err)
	}
	return l, frame, nil
}
