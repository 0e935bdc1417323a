// Package intern provides the term table: a concurrent string↔uint32
// dictionary that is also the one place a term's bytes live.
// The dissemination hot path compares terms millions of times per published
// document; interning every term once lets the inverted index store and
// compare compact integer ids instead of hashing and comparing strings on
// every posting. And because every decoded profile vector takes its terms
// from the table, a term held by ten thousand profile vectors is ten
// thousand 4-byte ids (InternBytes, vsm.Packed) over one backing array, not
// ten thousand strings (DESIGN.md §7, "Where a term lives").
//
// Ids are dense — 0..Len()-1 in order of first sight — and never recycled:
// an id, once handed out, maps to the same string for the lifetime of the
// dictionary. The vocabulary of a text collection is effectively bounded
// (stemmed word forms), so the dictionary only ever grows to
// corpus-vocabulary size. Only profile-side code inserts (Intern,
// InternBytes, Canon); document-side code uses Lookup and LookupBytes, so
// nothing a publisher sends can grow it.
//
// Reads take no lock: the dictionary publishes one open-addressed table
// through an atomic pointer, a key is hashed once, both string and []byte
// keys are looked up without allocating, and a slot carries everything that
// decides a short term, so a lookup is one cache line. Writers serialise on
// one mutex and publish a slot only after the string in it is in place.
package intern

import (
	"sync"
	"sync/atomic"
)

const (
	// maxTerms caps ids below 2^32-1, so that id+1 fits a slot's meta word:
	// ~4.3 billion terms, far beyond any vocabulary.
	maxTerms = 1<<32 - 1

	// minSlots is the first table size; tables double from there.
	minSlots = 16
)

// Terms is the process-wide term table: index.New uses it as its
// dictionary and vsm's decoders take every decoded term from it, so a
// term string exists once in the process however many profile vectors,
// retained documents and statistics keys refer to it.
var Terms = NewDict()

// Dict is a concurrent string↔uint32 dictionary.
type Dict struct {
	mu  sync.Mutex            // serialises writers
	tab atomic.Pointer[table] // nil until the first term
	n   atomic.Uint32         // terms in the table: the ids String resolves
}

// table is one generation of the dictionary: open addressing with linear probing,
// at most three quarters full. Growing builds the next generation aside and
// swaps the pointer; readers still on the old one see a valid, merely
// older, dictionary.
type table struct {
	slots []slot
	byID  []uint32 // id → slot, for String
}

// slot is one term, 32 bytes so that it never straddles a cache line: a
// lookup of a term of up to eight bytes — most stems — reads this line and
// nothing else, not even the term's own bytes. meta is 0 while the slot is
// empty and len<<32 | id + 1 once it is not; a writer fills prefix and str
// first and publishes them by storing meta, so a reader that loaded a
// non-zero meta may read them plainly.
type slot struct {
	meta   atomic.Uint64
	prefix uint64 // the term's first eight bytes, little-endian, zero-padded
	str    string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{} }

// key is what a lookup accepts: the two spellings of a term's bytes.
type key interface{ ~string | ~[]byte }

// Hash is the 32-bit FNV-1a hash of a term's bytes, the table's own.
// Exported so the publish path's token cache hashes the same way without a
// copy of it.
func Hash[K key](s K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// prefix packs the first eight bytes of k.
func prefix[K key](k K) uint64 {
	var p uint64
	for i := 0; i < len(k) && i < 8; i++ {
		p |= uint64(k[i]) << (8 * i)
	}
	return p
}

// find probes t for k, whose hash is h. Length and prefix together decide a
// term of up to eight bytes; a longer one is compared in full.
func find[K key](t *table, h uint32, k K) (id uint32, str string, ok bool) {
	if t == nil {
		return 0, "", false
	}
	size, pfx := uint64(uint32(len(k)))<<32, prefix(k)
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		m := s.meta.Load()
		if m == 0 {
			return 0, "", false
		}
		if m&^0xffffffff == size && s.prefix == pfx && (len(k) <= 8 || s.str == string(k)) {
			return uint32(m) - 1, s.str, true
		}
	}
}

// put writes term str, of id id, into the first empty slot of its probe
// sequence and returns that slot's meta word for the caller to store: the
// store is what makes the term findable.
func (t *table) put(id uint32, str string) (*atomic.Uint64, uint64) {
	mask := uint32(len(t.slots) - 1)
	for i := Hash(str) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.meta.Load() == 0 {
			s.prefix, s.str = prefix(str), str
			t.byID[id] = i
			return &s.meta, uint64(uint32(len(str)))<<32 | uint64(id+1)
		}
	}
}

// insert adds s unless another writer got there first, and returns the
// term's id and canonical string.
func (d *Dict) insert(s string) (uint32, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tab.Load()
	if id, str, ok := find(t, Hash(s), s); ok {
		return id, str
	}
	id := d.n.Load()
	if id >= maxTerms {
		panic("intern: dictionary overflow")
	}
	if t == nil || int(id) == len(t.byID) {
		size := minSlots
		if t != nil {
			size = 2 * len(t.slots)
		}
		nt := &table{slots: make([]slot, size), byID: make([]uint32, size/4*3)}
		for old := uint32(0); old < id; old++ {
			meta, v := nt.put(old, t.slots[t.byID[old]].str)
			meta.Store(v)
		}
		d.tab.Store(nt)
		t = nt
	}
	// Count the term before it can be found: whoever learns its id from the
	// slot must already get its string from String.
	meta, v := t.put(id, s)
	d.n.Store(id + 1)
	meta.Store(v)
	return id, s
}

// internKey is Intern and InternBytes: look up, or insert on first sight.
func internKey[K key](d *Dict, k K) uint32 {
	id, _, ok := find(d.tab.Load(), Hash(k), k)
	if !ok {
		id, _ = d.insert(string(k))
	}
	return id
}

// Intern returns the id of s, assigning a fresh one on first sight.
func (d *Dict) Intern(s string) uint32 { return internKey(d, s) }

// InternBytes returns the id of the term spelled by b, assigning a fresh one
// on first sight; only that first sight allocates. Profile decoding
// (vsm.DecodePacked) calls it for every term: a resident profile vector
// holds the ids, and the term's bytes stay here.
func (d *Dict) InternBytes(b []byte) uint32 { return internKey(d, b) }

// Canon returns the table's own copy of the term spelled by b, adding it on
// first sight. Only that first sight allocates. Decoding a vector that keeps
// its strings (vsm.DecodeVector: WAL document vectors) calls it for every
// term, so equal terms share one string.
func (d *Dict) Canon(b []byte) string {
	if _, s, ok := find(d.tab.Load(), Hash(b), b); ok {
		return s
	}
	_, s := d.insert(string(b))
	return s
}

// Lookup returns the id of s without interning it; ok is false when s has
// never been interned. Document-side code uses Lookup so that vocabulary
// seen only in published pages never grows the dictionary.
func (d *Dict) Lookup(s string) (uint32, bool) {
	id, _, ok := find(d.tab.Load(), Hash(s), s)
	return id, ok
}

// LookupBytes returns the table's copy of the term spelled by b, without
// adding it: the document-side counterpart of Canon.
func (d *Dict) LookupBytes(b []byte) (string, bool) {
	_, s, ok := find(d.tab.Load(), Hash(b), b)
	return s, ok
}

// String returns the term for an id, or "" for an id never handed out.
func (d *Dict) String(id uint32) string {
	if id >= d.n.Load() {
		return ""
	}
	t := d.tab.Load()
	return t.slots[t.byID[id]].str
}

// Len returns the number of distinct interned terms.
func (d *Dict) Len() int { return int(d.n.Load()) }
