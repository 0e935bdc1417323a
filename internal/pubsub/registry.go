package pubsub

import (
	"sync"
	"sync/atomic"
)

// registry is the broker's subscriber table: one map behind one read/write
// lock. A publish resolves all of its matches under one read hold.
//
// The subscriber count is an atomic maintained alongside the map: Stats()
// and the mm_pubsub_subscribers gauge read it without taking the lock.
type registry struct {
	mu    sync.RWMutex
	subs  map[string]*subscriber
	count atomic.Int64 // live subscribers
}

func newRegistry() *registry {
	return &registry{subs: make(map[string]*subscriber)}
}

// insert registers s under id. The duplicate check, the journal append
// (when journal is non-nil), and the map insertion happen as one atomic
// step under the registry lock — journaling a subscribe that then fails
// as a duplicate would clobber the existing user's profile on replay.
// Returns errDuplicate when id is taken; a journal error aborts the
// insertion.
func (r *registry) insert(id string, s *subscriber, journal func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.subs[id]; dup {
		return errDuplicate
	}
	if journal != nil {
		if err := journal(); err != nil {
			return err
		}
	}
	r.subs[id] = s
	r.count.Add(1)
	return nil
}

// remove deletes id and returns the removed subscriber.
func (r *registry) remove(id string) (*subscriber, bool) {
	r.mu.Lock()
	s, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
		r.count.Add(-1)
	}
	r.mu.Unlock()
	return s, ok
}

// get resolves one subscriber id under the read lock.
func (r *registry) get(id string) (*subscriber, bool) {
	r.mu.RLock()
	s, ok := r.subs[id]
	r.mu.RUnlock()
	return s, ok
}

// len returns the live subscriber count without taking the lock.
func (r *registry) len() int { return int(r.count.Load()) }
