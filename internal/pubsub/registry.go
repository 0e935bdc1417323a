package pubsub

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// registry is the broker's sharded subscriber table. Subscriber ids hash
// (FNV-1a) to one of a power-of-two number of shards, each holding its own
// subscriber map behind its own read/write lock, so subscribe/unsubscribe
// churn on one shard never stalls publishes touching the others — and no
// operation ever takes a table-wide lock.
//
// The subscriber count is an atomic maintained alongside the maps: Stats()
// and the mm_pubsub_subscribers gauge read it without touching any shard.
type registry struct {
	shards []regShard
	mask   uint32
	count  atomic.Int64 // live subscribers across all shards
}

type regShard struct {
	mu   sync.RWMutex
	subs map[string]*subscriber
}

// newRegistry builds a registry with the given shard-count suggestion
// rounded up to a power of two; n <= 0 means GOMAXPROCS.
func newRegistry(n int) *registry {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	shards := 1
	for shards < n {
		shards *= 2
	}
	r := &registry{shards: make([]regShard, shards), mask: uint32(shards - 1)}
	for i := range r.shards {
		r.shards[i].subs = make(map[string]*subscriber)
	}
	return r
}

// regFNV32 is the 32-bit FNV-1a hash, inlined so shard routing stays
// allocation-free on the publish path.
func regFNV32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (r *registry) shardFor(id string) *regShard {
	return &r.shards[regFNV32(id)&r.mask]
}

// insert registers s under id. The duplicate check, the journal append
// (when journal is non-nil), and the map insertion happen as one atomic
// step under the id's shard lock — journaling a subscribe that then fails
// as a duplicate would clobber the existing user's profile on replay.
// Returns errDuplicate when id is taken; a journal error aborts the
// insertion.
func (r *registry) insert(id string, s *subscriber, journal func() error) error {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.subs[id]; dup {
		return errDuplicate
	}
	if journal != nil {
		if err := journal(); err != nil {
			return err
		}
	}
	sh.subs[id] = s
	r.count.Add(1)
	return nil
}

// remove deletes id from its shard and returns the removed subscriber.
func (r *registry) remove(id string) (*subscriber, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.subs[id]
	if ok {
		delete(sh.subs, id)
		r.count.Add(-1)
	}
	sh.mu.Unlock()
	return s, ok
}

// get resolves one subscriber id under its shard's read lock.
func (r *registry) get(id string) (*subscriber, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.subs[id]
	sh.mu.RUnlock()
	return s, ok
}

// len returns the live subscriber count without touching any shard lock.
func (r *registry) len() int { return int(r.count.Load()) }
