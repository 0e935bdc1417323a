package metrics

// A top-k dimension bounds the cardinality problem in attribution: "which
// subscriber is dropping", "which term is expensive", "which WAL lane is
// hot" are all top-K-by-weight questions over key spaces (users, terms)
// that are unbounded, while the answer that matters is always the heavy
// head of a Zipf-skewed distribution. A space-saving (stream-summary)
// sketch answers them in fixed memory with a deterministic error bound.
//
// The sketch keeps at most C (key, count, err) entries. Offering weight w
// to a tracked key adds w to its count. Offering a new key when the table
// is full evicts the minimum-count entry m and installs the new key with
// count = m.count + w and err = m.count — the classic space-saving
// takeover. The invariants that follow (Metwally et al., 2005):
//
//	count - err ≤ true ≤ count        (per entry)
//	err ≤ min(table) ≤ W / C          (W = total offered weight)
//
// so every reported count is an overestimate by at most its own recorded
// err, and err itself is bounded by W/C. Any key whose true weight exceeds
// W/C is guaranteed to be present.
//
// Writes are striped: a caller-supplied hash routes each key to one of S
// independent sub-sketches, so concurrent Offer calls from different
// publish workers contend only when their keys collide on a stripe. Each
// stripe owns a disjoint keyspace, which keeps Snapshot a concatenation
// (no cross-stripe merge of the same key) at the cost of the per-entry
// bound holding with the stripe's own W_s/C_s. Offer is O(log C) worst
// case (a heap fix on a fixed-capacity heap) and allocates nothing in
// steady state: the entry slab, heap, and map are all pre-sized, and the
// evict path deletes a map key before inserting one, so the map's bucket
// population never grows past capacity.

import (
	"fmt"
	"sort"
	"sync"
)

// TopEntry is one reported heavy hitter. Count overestimates the key's
// true offered weight by at most Err: Count-Err ≤ true ≤ Count.
type TopEntry struct {
	Key   string  `json:"key"`
	Count float64 `json:"count"`
	Err   float64 `json:"err"`
}

// TopSnapshot is one dimension's current state: the top entries by count
// plus the bookkeeping needed to interpret them. Epsilon is the worst
// per-stripe W_s/C_s bound — any key with true weight above Epsilon is
// guaranteed to appear in the (full, k = capacity) table. Name and Help
// are the registration's, filled in by Registry.Top and Registry.Tops; in
// Registry.Snapshot the map key already names the dimension.
type TopSnapshot struct {
	Name     string     `json:"name,omitempty"`
	Help     string     `json:"help,omitempty"`
	Capacity int        `json:"capacity"`
	Tracked  int        `json:"tracked"`
	Total    float64    `json:"total_weight"`
	Epsilon  float64    `json:"epsilon"`
	Entries  []TopEntry `json:"entries"`
}

// dimension is the registry's view of one sketch: enough to snapshot and
// rate-sample it without knowing its key type.
type dimension interface {
	instrument
	Snapshot(k int) TopSnapshot
	Total() float64
}

// DimensionCapacity is the entry budget of the broker's and the index's
// dimensions, whose key spaces (subscribers, terms) are unbounded. 1024
// tracked keys per dimension costs ~100KB and keeps the space-saving error
// bound at W/1024 — tight enough that anything contributing over 0.1% of a
// dimension's weight is guaranteed to be visible.
const DimensionCapacity = 1024

// snapshotTopK is how many entries of each dimension Registry.Snapshot
// carries; /topz asks Registry.Tops for any other k.
const snapshotTopK = 10

func (s *Sketch[K]) kind() string       { return "topk" }
func (s *Sketch[K]) snapshotValue() any { return s.Snapshot(snapshotTopK) }

// slot is one resident entry inside a stripe. hpos tracks its position in
// the stripe's min-heap so count changes can fix the heap in O(log C).
type slot[K comparable] struct {
	key   K
	count float64
	err   float64
	hpos  int32
}

// stripe is one independent sub-sketch. pad spaces stripes a cache line
// apart so uncontended Offers on different stripes don't false-share.
type stripe[K comparable] struct {
	mu    sync.Mutex
	w     float64
	slots []slot[K]
	pos   map[K]int32
	heap  []int32 // slot indexes, min-heap ordered by count
	_     [24]byte
}

// Sketch is a striped space-saving sketch over keys of type K. The zero
// value is not usable; construct with TopK. A nil *Sketch is a no-op on
// Offer, so an uninstrumented component can hold one unconditionally.
type Sketch[K comparable] struct {
	capacity int // total across stripes
	hash     func(K) uint32
	format   func(K) string
	mask     uint32
	stripes  []stripe[K]
}

// TopK returns r's top-k dimension called name, creating it on first use
// like Registry.Counter (a function, not a method, only because methods
// cannot take type parameters). The sketch tracks at most capacity entries
// in total, split over stripes sub-sketches (0 picks the default of 8;
// capacity is rounded up to a multiple of the stripe count, minimum 1 per
// stripe). hash routes keys to stripes — it only needs to spread keys, not
// be cryptographic — and format renders a key for snapshots (called only
// at snapshot time, so expensive lookups like term-id → string stay off
// the hot path). Asking for an existing name with another key type panics,
// like any kind collision.
func TopK[K comparable](r *Registry, name, help string, capacity, stripes int, hash func(K) uint32, format func(K) string) *Sketch[K] {
	if stripes <= 0 {
		stripes = 8
	}
	// Round stripes to a power of two so routing is a mask, not a mod.
	n := 1
	for n < stripes {
		n <<= 1
	}
	stripes = n
	per := (capacity + stripes - 1) / stripes
	if per < 1 {
		per = 1
	}
	s := &Sketch[K]{
		capacity: per * stripes,
		hash:     hash,
		format:   format,
		mask:     uint32(stripes - 1),
		stripes:  make([]stripe[K], stripes),
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.slots = make([]slot[K], 0, per)
		st.pos = make(map[K]int32, per)
		st.heap = make([]int32, 0, per)
	}
	got, ok := r.register(name, help, s).(*Sketch[K])
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as a topk over another key type", name))
	}
	return got
}

// Offer adds weight w to key. Non-positive weights are ignored. Safe for
// concurrent use; a nil receiver is a no-op.
func (s *Sketch[K]) Offer(key K, w float64) {
	if s == nil || w <= 0 {
		return
	}
	st := &s.stripes[s.hash(key)&s.mask]
	st.mu.Lock()
	st.w += w
	if i, ok := st.pos[key]; ok {
		st.slots[i].count += w
		st.siftDown(int(st.slots[i].hpos))
	} else if len(st.slots) < cap(st.slots) {
		i := int32(len(st.slots))
		st.slots = append(st.slots, slot[K]{key: key, count: w})
		st.pos[key] = i
		st.heap = append(st.heap, i)
		st.slots[i].hpos = int32(len(st.heap) - 1)
		st.siftUp(len(st.heap) - 1)
	} else {
		// Space-saving takeover: the minimum-count entry surrenders its
		// slot; its count becomes the newcomer's error bound.
		vi := st.heap[0]
		v := &st.slots[vi]
		delete(st.pos, v.key)
		v.err = v.count
		v.count += w
		v.key = key
		st.pos[key] = vi
		st.siftDown(0)
	}
	st.mu.Unlock()
}

// siftDown restores the min-heap below heap position hp after the count
// at hp grew.
func (st *stripe[K]) siftDown(hp int) {
	n := len(st.heap)
	for {
		l, r := 2*hp+1, 2*hp+2
		min := hp
		if l < n && st.slots[st.heap[l]].count < st.slots[st.heap[min]].count {
			min = l
		}
		if r < n && st.slots[st.heap[r]].count < st.slots[st.heap[min]].count {
			min = r
		}
		if min == hp {
			return
		}
		st.swap(hp, min)
		hp = min
	}
}

// siftUp restores the min-heap above heap position hp after an insert.
func (st *stripe[K]) siftUp(hp int) {
	for hp > 0 {
		parent := (hp - 1) / 2
		if st.slots[st.heap[parent]].count <= st.slots[st.heap[hp]].count {
			return
		}
		st.swap(hp, parent)
		hp = parent
	}
}

func (st *stripe[K]) swap(a, b int) {
	st.heap[a], st.heap[b] = st.heap[b], st.heap[a]
	st.slots[st.heap[a]].hpos = int32(a)
	st.slots[st.heap[b]].hpos = int32(b)
}

// Total returns the cumulative weight offered across all stripes;
// monotone, so the registry's ring samples it like a counter.
func (s *Sketch[K]) Total() float64 {
	if s == nil {
		return 0
	}
	var w float64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		w += st.w
		st.mu.Unlock()
	}
	return w
}

// Snapshot reports the top k entries by count (k ≤ 0 means all tracked),
// sorted by descending count with key as the tiebreak.
func (s *Sketch[K]) Snapshot(k int) TopSnapshot {
	if s == nil {
		return TopSnapshot{}
	}
	snap := TopSnapshot{Capacity: s.capacity}
	all := make([]TopEntry, 0, s.capacity)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		snap.Total += st.w
		per := float64(cap(st.slots))
		if eps := st.w / per; eps > snap.Epsilon {
			snap.Epsilon = eps
		}
		for j := range st.slots {
			sl := &st.slots[j]
			all = append(all, TopEntry{Key: s.format(sl.key), Count: sl.count, Err: sl.err})
		}
		st.mu.Unlock()
	}
	snap.Tracked = len(all)
	sort.Slice(all, func(a, b int) bool {
		if all[a].Count != all[b].Count {
			return all[a].Count > all[b].Count
		}
		return all[a].Key < all[b].Key
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	snap.Entries = all
	return snap
}

// HashString is an FNV-1a stripe router for string keys.
func HashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// HashU32 is a Fibonacci-multiplier stripe router for integer keys (term
// ids are dense and sequential; multiplication spreads them).
func HashU32(x uint32) uint32 {
	return (x * 2654435761) >> 16
}

// FormatString is the identity key formatter for string-keyed sketches.
func FormatString(s string) string { return s }

// top snapshots e as a dimension, filling in its registered name and help;
// ok is false when e is another kind of instrument.
func (e *entry) top(k int) (snap TopSnapshot, ok bool) {
	d, ok := e.m.(dimension)
	if !ok {
		return TopSnapshot{}, false
	}
	snap = d.Snapshot(k)
	snap.Name, snap.Help = e.name, e.help
	return snap, true
}

// Top snapshots the dimension registered as name (its top k entries;
// k ≤ 0 means all tracked). ok is false when name is not a top-k
// dimension.
func (r *Registry) Top(name string, k int) (snap TopSnapshot, ok bool) {
	r.mu.RLock()
	e := r.byName[name]
	r.mu.RUnlock()
	if e == nil {
		return TopSnapshot{}, false
	}
	return e.top(k)
}

// Tops snapshots every dimension with the same k, in registration order.
func (r *Registry) Tops(k int) []TopSnapshot {
	r.mu.RLock()
	series := r.series
	r.mu.RUnlock()
	var out []TopSnapshot
	for _, e := range series {
		if snap, ok := e.top(k); ok {
			out = append(out, snap)
		}
	}
	return out
}
