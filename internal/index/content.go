package index

import (
	"math"

	"mmprofile/internal/vsm"
)

// contentHash keys the content table: a 64-bit mix of p's length, ids and
// weight bits. It decides nothing — a hit is checked with vsm.Packed.Equal —
// so a collision only costs a vector its sharing.
func contentHash(p vsm.Packed) uint64 {
	h := uint64(len(p.IDs)) * 0x9E3779B97F4A7C15
	for i, id := range p.IDs {
		h = (h ^ uint64(id)) * 0xBF58476D1CE4E5B9
		h = (h ^ math.Float64bits(p.Weights[i])) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// The content table (Index.content, guarded by the index lock) maps a
// content hash to the one live entry a new equal vector joins. A hash
// names at most one entry; an entry whose hash another content already
// took is unnamed, so equal vectors after it make entries of their own —
// as correct, only not shared.

// lookup returns the slot of the entry named for hash h, if its content
// equals p.
func (ix *Index) lookup(h uint64, p vsm.Packed) (uint32, bool) {
	slot, ok := ix.content[h]
	if !ok || !ix.entries[slot].p.Equal(p) {
		return 0, false
	}
	return slot, true
}

// name names slot for hash h unless another entry holds the name.
func (ix *Index) name(h uint64, slot uint32) {
	if _, taken := ix.content[h]; !taken {
		ix.content[h] = slot
	}
}

// unname drops hash h's name if it names slot.
func (ix *Index) unname(h uint64, slot uint32) {
	if s, ok := ix.content[h]; ok && s == slot {
		delete(ix.content, h)
	}
}

// The name table (Index.names and Index.byName, guarded by the index
// lock) maps a vsm.Digest — the name of bytes a vector was decoded from —
// to the live entry that vector is, so an import of the same bytes takes
// the entry's vector instead of decoding them again (Named). names[slot] is
// the entry's digest, zero for an unnamed one; byName finds a slot by it.
// An entry has at most one name and a name at most one entry, and the name
// dies with the entry's last holder (leave), so a name pins nothing.

// nameTable is an open-addressing set of named entry slots, linear probing
// on their digests' first words: a keyed hash, uniform already. A cell is
// the high half of that word over slot+1, so a probe compares the digests'
// halves in the cell and loads a digest only when they match, and a cell
// moves without one. It is 8 bytes and the table at most three quarters
// full — at least three eighths while it only grows — so with its digest a
// named entry costs 27–40 bytes (TestNameBytesPerEntry). A Go map from
// digest to slot spends 36–55 bytes on top of the digest: with one, an
// import of distinct profiles costs 24.4 live bytes a (vector, term) pair,
// over the 24 of pubsub's TestResidentBytesPerTerm.
type nameTable struct {
	cells []uint64 // 0 is an empty cell
	n     int
}

const slotBits = 1<<32 - 1

func cellOf(d *vsm.Digest, slot uint32) uint64 { return d[0]&^slotBits | uint64(slot+1) }

// home is where the probe for a cell, or for a digest's first word, starts.
func (t *nameTable) home(c uint64) int { return int(c>>32) & (len(t.cells) - 1) }

// find returns the slot named d.
func (t *nameTable) find(d *vsm.Digest, names []vsm.Digest) (uint32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask, high := len(t.cells)-1, d[0]&^slotBits
	for i := t.home(high); t.cells[i] != 0; i = (i + 1) & mask {
		if c := t.cells[i]; c&^slotBits == high && names[uint32(c)-1] == *d {
			return uint32(c) - 1, true
		}
	}
	return 0, false
}

// insert adds slot, whose digest names[slot] holds and no cell does yet.
func (t *nameTable) insert(slot uint32, names []vsm.Digest) {
	if 4*(t.n+1) > 3*len(t.cells) {
		t.resize(max(16, 2*len(t.cells)))
	}
	t.put(cellOf(&names[slot], slot))
	t.n++
}

func (t *nameTable) put(c uint64) {
	mask := len(t.cells) - 1
	i := t.home(c)
	for t.cells[i] != 0 {
		i = (i + 1) & mask
	}
	t.cells[i] = c
}

// remove drops slot, whose digest names[slot] still holds, shifting back
// every cell after it that probed past it, so no tombstone is left; the
// cells shrink when an eighth full.
func (t *nameTable) remove(slot uint32, names []vsm.Digest) {
	mask, c := len(t.cells)-1, cellOf(&names[slot], slot)
	i := t.home(c)
	for t.cells[i] != c {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.cells[j] != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at i unless its home lies in (i, j].
		if h := t.home(t.cells[j]); (j-h)&mask >= (j-i)&mask {
			t.cells[i], i = t.cells[j], j
		}
	}
	t.cells[i] = 0
	t.n--
	if len(t.cells) > 16 && 8*t.n < len(t.cells) {
		t.resize(len(t.cells) / 2)
	}
}

func (t *nameTable) resize(size int) {
	old := t.cells
	t.cells = make([]uint64, size)
	for _, c := range old {
		if c != 0 {
			t.put(c)
		}
	}
}

// Named returns the vector of the live entry named d: the vector decoded
// from bytes whose digest is d. The index is the vsm.Source an import
// decodes from (core.Profile.UnmarshalFrom).
func (ix *Index) Named(d vsm.Digest) (vsm.Packed, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if slot, ok := ix.byName.find(&d, ix.names); ok {
		return ix.entries[slot].p, true
	}
	return vsm.Packed{}, false
}

// nameSlot names the live entry at slot by d, unless d is zero or either
// already names or has a name.
func (ix *Index) nameSlot(d vsm.Digest, slot uint32) {
	if d == (vsm.Digest{}) {
		return
	}
	if n := len(ix.entries); n > cap(ix.names) {
		// An eighth of slack, not append's quarter or more: a digest is
		// most of what a name costs.
		grown := make([]vsm.Digest, n, n+n/8)
		copy(grown, ix.names)
		ix.names = grown
	} else if n > len(ix.names) {
		ix.names = ix.names[:n]
	}
	if ix.names[slot] != (vsm.Digest{}) {
		return
	}
	if _, taken := ix.byName.find(&d, ix.names); taken {
		return
	}
	ix.names[slot] = d
	ix.byName.insert(slot, ix.names)
}

// unnameSlot drops the name of the entry at slot, if it has one.
func (ix *Index) unnameSlot(slot uint32) {
	if int(slot) >= len(ix.names) || ix.names[slot] == (vsm.Digest{}) {
		return
	}
	ix.byName.remove(slot, ix.names)
	ix.names[slot] = vsm.Digest{}
}
