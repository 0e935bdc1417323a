package metrics

// A top-k dimension bounds the cardinality problem in attribution: "which
// subscriber is dropping" and "which term is expensive" are top-K-by-weight
// questions over key spaces (users, terms) that are unbounded, while the
// answer that matters is always the heavy head of a Zipf-skewed
// distribution. A space-saving (stream-summary)
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
// One sketch covers the whole capacity behind one mutex, so the bound above
// holds for the dimension as a whole. Offer is O(log C) worst case (a heap
// fix on a fixed-capacity heap) and allocates nothing in steady state: the
// entry slab, heap, and map are all pre-sized, and the evict path deletes a
// map key before inserting one, so the map's bucket population never grows
// past capacity.

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
// plus the bookkeeping needed to interpret them. Epsilon is the W/C bound —
// any key with true weight above Epsilon is guaranteed to appear in the
// (full, k = capacity) table. Name and Help
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

// slot is one resident entry. Its count lives in its heap entry, at hpos,
// so a heap fix compares counts without leaving the heap array.
type slot[K comparable] struct {
	key  K
	err  float64
	hpos int32
}

// heapEntry is one heap position: a slot's count and the slot.
type heapEntry struct {
	count float64
	slot  int32
}

// Sketch is a space-saving sketch over keys of type K. The zero value is
// not usable; construct with TopK. A nil *Sketch is a no-op on Offer, so an
// uninstrumented component can hold one unconditionally.
type Sketch[K comparable] struct {
	format func(K) string

	mu    sync.Mutex
	w     float64
	slots []slot[K]
	pos   map[K]int32
	heap  []heapEntry // min-heap by count
}

// TopK returns r's top-k dimension called name, creating it on first use
// like Registry.Counter (a function, not a method, only because methods
// cannot take type parameters). The sketch tracks at most capacity entries
// (minimum 1), and format renders a key for snapshots (called only at
// snapshot time, so expensive lookups like term-id → string stay off the
// hot path). Asking for an existing name with another key type panics,
// like any kind collision.
func TopK[K comparable](r *Registry, name, help string, capacity int, format func(K) string) *Sketch[K] {
	capacity = max(capacity, 1)
	s := &Sketch[K]{
		format: format,
		slots:  make([]slot[K], 0, capacity),
		pos:    make(map[K]int32, capacity),
		heap:   make([]heapEntry, 0, capacity),
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
	s.mu.Lock()
	s.offer(key, w)
	s.mu.Unlock()
}

// OfferEach offers the n weighted keys at(0), …, at(n-1) under one hold of
// the lock, so a caller with many offers at once — a match, one per document
// term; a publish, one per delivery — takes it once. Non-positive weights
// are ignored; at must not call back into the sketch.
func (s *Sketch[K]) OfferEach(n int, at func(i int) (K, float64)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := 0; i < n; i++ {
		if key, w := at(i); w > 0 {
			s.offer(key, w)
		}
	}
	s.mu.Unlock()
}

// offer is one Offer of a positive weight. Caller holds s.mu.
func (s *Sketch[K]) offer(key K, w float64) {
	s.w += w
	if i, ok := s.pos[key]; ok {
		hp := int(s.slots[i].hpos)
		s.heap[hp].count += w
		s.siftDown(hp)
	} else if len(s.slots) < cap(s.slots) {
		i := int32(len(s.slots))
		s.slots = append(s.slots, slot[K]{key: key})
		s.pos[key] = i
		s.heap = append(s.heap, heapEntry{w, i})
		s.siftUp(len(s.heap) - 1)
	} else {
		// Space-saving takeover: the minimum-count entry surrenders its
		// slot; its count becomes the newcomer's error bound.
		low := &s.heap[0]
		v := &s.slots[low.slot]
		delete(s.pos, v.key)
		v.err = low.count
		low.count += w
		v.key = key
		s.pos[key] = low.slot
		s.siftDown(0)
	}
}

// siftDown restores the min-heap below heap position hp after the count
// at hp grew.
func (s *Sketch[K]) siftDown(hp int) {
	e, n := s.heap[hp], len(s.heap)
	for {
		c := 2*hp + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.heap[r].count < s.heap[c].count {
			c = r
		}
		if e.count <= s.heap[c].count {
			break
		}
		s.place(hp, s.heap[c])
		hp = c
	}
	s.place(hp, e)
}

// siftUp restores the min-heap above heap position hp after an insert.
func (s *Sketch[K]) siftUp(hp int) {
	e := s.heap[hp]
	for hp > 0 {
		parent := (hp - 1) / 2
		if s.heap[parent].count <= e.count {
			break
		}
		s.place(hp, s.heap[parent])
		hp = parent
	}
	s.place(hp, e)
}

// place puts e at heap position hp and tells its slot.
func (s *Sketch[K]) place(hp int, e heapEntry) {
	s.heap[hp] = e
	s.slots[e.slot].hpos = int32(hp)
}

// Total returns the cumulative weight offered; monotone, so the registry's
// ring samples it like a counter.
func (s *Sketch[K]) Total() float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w
}

// Snapshot reports the top k entries by count (k ≤ 0 means all tracked),
// sorted by descending count with key as the tiebreak.
func (s *Sketch[K]) Snapshot(k int) TopSnapshot {
	if s == nil {
		return TopSnapshot{}
	}
	s.mu.Lock()
	snap := TopSnapshot{Capacity: cap(s.slots), Total: s.w, Epsilon: s.w / float64(cap(s.slots))}
	all := make([]TopEntry, len(s.slots))
	for j := range s.slots {
		sl := &s.slots[j]
		all[j] = TopEntry{Key: s.format(sl.key), Count: s.heap[sl.hpos].count, Err: sl.err}
	}
	s.mu.Unlock()
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
