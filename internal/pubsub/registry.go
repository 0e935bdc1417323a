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
//
// The lock is a leaf below each subscriber's mu: a caller may hold a
// subscriber's lock while it takes this one, never the other way round.
type registry struct {
	mu    sync.RWMutex
	subs  map[string]*subscriber
	count atomic.Int64 // live subscribers
}

func newRegistry() *registry {
	return &registry{subs: make(map[string]*subscriber)}
}

// insert registers s under id, or reports false when id is taken.
func (r *registry) insert(id string, s *subscriber) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.subs[id]; dup {
		return false
	}
	r.subs[id] = s
	r.count.Add(1)
	return true
}

// remove deletes id if it still names s.
func (r *registry) remove(id string, s *subscriber) {
	r.mu.Lock()
	if r.subs[id] == s {
		delete(r.subs, id)
		r.count.Add(-1)
	}
	r.mu.Unlock()
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
