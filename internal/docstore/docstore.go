// Package docstore holds the broker's short-lived document retention
// window: the paper notes document vectors are "typically only retained
// for a short duration" (Section 4.3), just long enough for subscribers to
// judge what they were sent. The store is a fixed-capacity FIFO — admitting
// document N evicts document N-retention — implemented as a ring of records
// in which a document's id is its position.
//
// Concurrency: ids come from one global atomic allocator, so document ids
// remain totally ordered across concurrent publishers, but the ring is
// sharded by id with one mutex per shard. Sequential ids round-robin across
// shards, so concurrent Put calls almost always land on different shards
// and never serialize behind a single store-wide lock.
//
// Sharding preserves the exact FIFO retention window: shard count is
// clamped to a power of two that divides the retention capacity, so the
// slot a document takes in its shard's ring is occupied by exactly the
// document `retention` ids older.
package docstore

import (
	"sync"
	"sync/atomic"

	"mmprofile/internal/vsm"
)

// Record is one retained document: its id, its vector in the form the
// broker keeps it (vsm.Retained, whose layout is vsm's business), and the
// raw page when the caller retains content.
type Record struct {
	ID      int64
	Doc     vsm.Retained
	Content string
}

// Store is a sharded fixed-capacity document window. Safe for concurrent
// use. The zero value is not usable; call New.
type Store struct {
	retention int
	mask      int64 // len(shards)-1; shard of id is id & mask
	next      atomic.Int64
	shards    []shard
}

// shard is one slice of the ring. A slot is validated by the id it holds,
// and by filled, which tells document 0 from a slot nothing was put in.
type shard struct {
	mu   sync.Mutex
	docs []slot
}

type slot struct {
	rec    Record
	filled bool
}

// at returns the slot of document id — the id's count within its shard,
// modulo the shard's ring — which holds it, an older document whose place
// it will take, a newer one that took its place, or nothing.
func (s *Store) at(id int64) (*shard, *slot) {
	sh := &s.shards[id&s.mask]
	return sh, &sh.docs[id/int64(len(s.shards))%int64(len(sh.docs))]
}

// New creates a store retaining the most recent `retention` documents
// (min 1), sharded `shards` ways. The shard count is rounded down to the
// largest power of two that divides retention — the clamp that keeps
// per-shard ring eviction identical to a single global FIFO — so callers
// can pass any suggestion (GOMAXPROCS, a flag) without thinking about
// divisibility; shards <= 0 means 1.
func New(retention, shards int) *Store {
	if retention < 1 {
		retention = 1
	}
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	for retention%n != 0 {
		n /= 2
	}
	s := &Store{retention: retention, mask: int64(n - 1), shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].docs = make([]slot, retention/n)
	}
	return s
}

// Retention returns the store's capacity in documents.
func (s *Store) Retention() int { return s.retention }

// Shards returns the number of independently locked shards.
func (s *Store) Shards() int { return len(s.shards) }

// Put admits a document, assigning it the next id in the global total
// order, and reports whether a document left the window to make room: the
// one retention ids older, which held the slot — or, should retention
// publishers have overtaken this one between the id and the lock, this one.
func (s *Store) Put(doc vsm.Retained, content string) (id int64, evicted bool) {
	id = s.next.Add(1) - 1
	sh, sl := s.at(id)
	sh.mu.Lock()
	evicted = sl.filled
	if !sl.filled || sl.rec.ID < id {
		*sl = slot{Record{ID: id, Doc: doc, Content: content}, true}
	}
	sh.mu.Unlock()
	return id, evicted
}

// Get returns the retained record of a document id. It allocates nothing:
// a caller that needs the vector builds it with rec.Doc.Vector().
func (s *Store) Get(id int64) (Record, bool) {
	if id < 0 {
		return Record{}, false
	}
	sh, sl := s.at(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sl.filled || sl.rec.ID != id { // never put, not put yet, or evicted
		return Record{}, false
	}
	return sl.rec, true
}

// Len returns the number of currently retained documents.
func (s *Store) Len() int {
	n := 0
	s.Range(func(Record) { n++ })
	return n
}

// Range calls fn for every retained record, shard by shard (diagnostics
// and tests; order is unspecified). fn must not call back into the store.
func (s *Store) Range(fn func(Record)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.docs {
			if sh.docs[k].filled {
				fn(sh.docs[k].rec)
			}
		}
		sh.mu.Unlock()
	}
}
