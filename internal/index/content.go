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

// The content table (Index.content, guarded by the registry lock) maps a
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
