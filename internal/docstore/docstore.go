// Package docstore holds the broker's short-lived document retention
// window: the paper notes document vectors are "typically only retained
// for a short duration" (Section 4.3), just long enough for subscribers to
// judge what they were sent. The store is a fixed-capacity FIFO — admitting
// document N evicts document N-retention — implemented as a ring of records
// in which a document's id is its position.
//
// Concurrency: ids come from one atomic allocator, so document ids remain
// totally ordered across concurrent publishers, and the ring is behind one
// mutex. Ids are drawn outside it, so a publisher may reach the lock after
// one holding a newer id: Put never lets an older document overwrite a
// newer one.
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

// Store is a fixed-capacity document window. Safe for concurrent use. The
// zero value is not usable; call New.
type Store struct {
	next atomic.Int64
	mu   sync.Mutex
	docs []slot // document id's slot is id mod len(docs)
}

// slot is one place in the ring. It is validated by the id it holds, and by
// filled, which tells document 0 from a slot nothing was put in.
type slot struct {
	rec    Record
	filled bool
}

// at returns the slot of document id, which holds it, an older document
// whose place it will take, a newer one that took its place, or nothing.
// Caller holds s.mu.
func (s *Store) at(id int64) *slot { return &s.docs[id%int64(len(s.docs))] }

// New creates a store retaining the most recent `retention` documents
// (min 1).
func New(retention int) *Store {
	return &Store{docs: make([]slot, max(retention, 1))}
}

// Retention returns the store's capacity in documents.
func (s *Store) Retention() int { return len(s.docs) }

// Put admits a document, assigning it the next id in the global total
// order, and reports whether a document left the window to make room: the
// one retention ids older, which held the slot — or, should retention
// publishers have overtaken this one between the id and the lock, this one.
func (s *Store) Put(doc vsm.Retained, content string) (id int64, evicted bool) {
	id = s.next.Add(1) - 1
	s.mu.Lock()
	sl := s.at(id)
	evicted = sl.filled
	if !sl.filled || sl.rec.ID < id {
		*sl = slot{Record{ID: id, Doc: doc, Content: content}, true}
	}
	s.mu.Unlock()
	return id, evicted
}

// Get returns the retained record of a document id. It allocates nothing:
// a caller that needs the vector builds it with rec.Doc.Vector().
func (s *Store) Get(id int64) (Record, bool) {
	if id < 0 {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.at(id)
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

// Range calls fn for every retained record (diagnostics and tests; order
// is unspecified). fn must not call back into the store.
func (s *Store) Range(fn func(Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.docs {
		if s.docs[k].filled {
			fn(s.docs[k].rec)
		}
	}
}
