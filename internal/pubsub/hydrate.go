package pubsub

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/obs"
	"mmprofile/internal/trace"
)

// Hydrator restores one subscriber's profile from durable storage, for
// lazy profile hydration (DESIGN.md §14). *store.Store implements it: the
// profile is rebuilt from the user's checkpoint segment plus a replay of
// the user's WAL records. RestoreUser reports ok=false when the user
// has no durable state (never subscribed, or unsubscribed).
//
// Because the broker journals every profile mutation *before* applying it
// in memory (see Journal), a profile rebuilt by the hydrator is
// bit-identical (in MarshalBinary terms) to the in-heap profile it
// replaces — which is what lets the broker drop cold profiles entirely
// instead of spilling them.
type Hydrator interface {
	RestoreUser(user string) (*core.Profile, bool, error)
}

// residencyLRU orders resident subscribers by last profile access, most
// recent first, over intrusive links on the subscriber structs (no
// allocation per touch). Its mutex is a leaf lock: it is taken while
// holding a subscriber's mu (touch from the feedback path) but never the
// other way around — eviction pops the victim first and locks it after
// (see Broker.enforceResidency).
type residencyLRU struct {
	mu         sync.Mutex
	head, tail *subscriber
	n          int
}

func (l *residencyLRU) len() int {
	l.mu.Lock()
	n := l.n
	l.mu.Unlock()
	return n
}

// unlink detaches s from the list; caller holds l.mu and s.inLRU is true.
func (l *residencyLRU) unlink(s *subscriber) {
	if s.lruPrev != nil {
		s.lruPrev.lruNext = s.lruNext
	} else {
		l.head = s.lruNext
	}
	if s.lruNext != nil {
		s.lruNext.lruPrev = s.lruPrev
	} else {
		l.tail = s.lruPrev
	}
	s.lruPrev, s.lruNext = nil, nil
	s.inLRU = false
	l.n--
}

// touch moves s to the front (most recently used), inserting it if absent.
func (l *residencyLRU) touch(s *subscriber) {
	l.mu.Lock()
	if s.inLRU {
		if l.head == s {
			l.mu.Unlock()
			return
		}
		l.unlink(s)
	}
	s.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = s
	}
	l.head = s
	if l.tail == nil {
		l.tail = s
	}
	s.inLRU = true
	l.n++
	l.mu.Unlock()
}

// drop removes s if present (unsubscribe, eviction).
func (l *residencyLRU) drop(s *subscriber) {
	l.mu.Lock()
	if s.inLRU {
		l.unlink(s)
	}
	l.mu.Unlock()
}

// popTail removes and returns the least recently used subscriber, or nil.
func (l *residencyLRU) popTail() *subscriber {
	l.mu.Lock()
	s := l.tail
	if s != nil {
		l.unlink(s)
	}
	l.mu.Unlock()
	return s
}

// bounded reports whether the broker enforces a residency bound at all.
func (b *Broker) bounded() bool {
	return b.opts.MaxResident > 0 && b.opts.Hydrator != nil
}

// hydrateLocked rebuilds an evicted subscriber's profile from the
// hydrator and returns its vectors to the match index. Caller holds s.mu;
// s is not closed and s.learner is nil.
func (b *Broker) hydrateLocked(s *subscriber, sp *trace.Span) error {
	if b.opts.Hydrator == nil {
		return fmt.Errorf("pubsub: subscriber %q is evicted and no hydrator is configured", s.id)
	}
	t0 := time.Now()
	hs := sp.ChildAt("store.hydrate", t0)
	l, ok, err := b.opts.Hydrator.RestoreUser(s.id)
	hs.End()
	if err != nil {
		return fmt.Errorf("pubsub: hydrate %q: %w", s.id, err)
	}
	if !ok {
		return fmt.Errorf("pubsub: hydrate %q: no durable state", s.id)
	}
	s.learner = l
	// Re-baseline the adaptation telemetry: replay repeats operations that
	// were already counted while the profile was resident.
	s.lastOps, s.lastSize = l.Counts(), l.ProfileSize()
	b.m.profileVectors.Add(float64(s.lastSize))
	b.indexLocked(s)
	b.m.residentProfiles.Add(1)
	b.m.hydrations.Inc()
	b.m.topHydrations.Offer(s.id, 1)
	b.m.hydrateLat.ObserveSince(t0)
	if b.bounded() {
		b.lru.touch(s)
	}
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: hydrate",
			slog.String("user", s.id),
			slog.Int("profile_vectors", s.lastSize))
	}
	return nil
}

// evictLocked drops a resident subscriber's profile from the heap: the
// profile's state is fully recoverable from the journal (every mutation
// was journaled before it was applied), so nothing is written. The
// subscriber stays registered — its id, delivery queue, and subscription
// handles remain valid — but its index entries go, so it leaves the match
// path until rehydrated. Caller holds s.mu.
func (b *Broker) evictLocked(s *subscriber) {
	s.learner = nil
	b.idx.RemoveUser(s.id)
	gone, pairs := s.lastSize, s.lastPairs
	s.lastSize, s.lastPairs = 0, 0
	s.lastOps = core.OpCounts{}
	b.lru.drop(s)
	b.m.profileVectors.Add(float64(-gone))
	b.m.residentPairs.Add(float64(-pairs))
	b.m.residentProfiles.Add(-1)
	b.m.profileEvictions.Inc()
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: evict",
			slog.String("user", s.id),
			slog.Int("profile_vectors", gone))
	}
}

// enforceResidency evicts least-recently-used subscribers until the
// resident count is within Options.MaxResident. It must be called with no
// subscriber lock held (the victim may be the subscriber the caller just
// operated on). The pop-then-lock order keeps the LRU mutex a leaf: a
// victim that is touched between the pop and the lock is simply evicted
// anyway — rare, and it rehydrates on its next access.
func (b *Broker) enforceResidency() {
	if !b.bounded() {
		return
	}
	for b.lru.len() > b.opts.MaxResident {
		v := b.lru.popTail()
		if v == nil {
			return
		}
		v.mu.Lock()
		if !v.closed && v.learner != nil {
			b.evictLocked(v)
		}
		v.mu.Unlock()
	}
}

// SubscribeRestored registers a subscriber restored from the persistence
// layer at boot, without journaling (the journal already contains its
// subscribe record). l is the restored profile, or nil to register the
// subscriber evicted — it then occupies no profile heap until its first
// feedback or introspection hydrates it, which is how a server with
// -max-resident-profiles boots a journal of any size in O(subscribers)
// stubs instead of O(events) replay. A nil l requires a configured
// Hydrator.
func (b *Broker) SubscribeRestored(id string, l *core.Profile) (*Subscription, error) {
	if l != nil {
		return b.subscribe(id, l, nil)
	}
	if b.opts.Hydrator == nil {
		return nil, fmt.Errorf("pubsub: restore %q: nil profile requires a hydrator", id)
	}
	s := &subscriber{id: id}
	if err := b.reg.insert(id, s, nil); err != nil {
		if err == errDuplicate {
			return nil, fmt.Errorf("pubsub: duplicate subscriber %q", id)
		}
		return nil, err
	}
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: restore evicted", slog.String("user", id))
	}
	return &Subscription{b: b, sub: s}, nil
}
