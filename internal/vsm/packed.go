package vsm

import (
	"hash/maphash"
	"math"
	"math/bits"
	"sync"

	"mmprofile/internal/intern"
)

// Packed is a Vector whose terms are ids of the process-wide term table
// (intern.Terms): what a resident profile vector is stored as. 12 bytes
// per (vector, term) pair where a Vector spends 24, and nothing in it is a
// pointer the collector has to mark.
//
// IDs[i] is the id of the i-th term in the lexicographic order of the term
// strings — the order of the Vector it was packed from — never in id
// order. Ids are handed out in arrival order, so they differ from process
// to process, while every sum and merge over a vector (Dot, Combine, the
// codec) must run in an order all processes agree on: a replay elsewhere
// has to reproduce a profile byte for byte (DESIGN.md §7).
//
// A Packed is immutable once built: the profile that holds it, the index
// and every PackedVectors caller share its slices and none writes to them.
// The index leans on this twice: an entry is the Packed it was given, not a
// copy — and every profile holding an Equal vector may share it — and "the
// same slices again" (same backing arrays, same lengths) is how a reindex
// knows a vector has not changed. Code that needs a different
// vector builds a new Packed; writing into one would leave postings that no
// longer describe it.
type Packed struct {
	IDs     []uint32
	Weights []float64
}

// Pack interns v's terms and returns v as ids and weights, in v's order.
// Only profile-side code packs: it is, with DecodePacked, what grows the
// term table.
func Pack(v Vector) Packed {
	p := Packed{
		IDs:     make([]uint32, len(v.Terms)),
		Weights: append([]float64(nil), v.Weights...),
	}
	for i, t := range v.Terms {
		p.IDs[i] = intern.Terms.Intern(t)
	}
	return p
}

// Len returns the number of terms.
func (p Packed) Len() int { return len(p.IDs) }

// Equal reports whether p and q are the same vector bit for bit: the same
// ids in the same stored order, and weights with equal math.Float64bits
// (so a NaN equals the same NaN and 0 does not equal -0). Equal vectors
// score every document alike and encode to the same bytes, so either may
// stand in for the other.
func (p Packed) Equal(q Packed) bool {
	if len(p.IDs) != len(q.IDs) || len(p.Weights) != len(q.Weights) {
		return false
	}
	if len(p.IDs) > 0 && &p.IDs[0] == &q.IDs[0] && &p.Weights[0] == &q.Weights[0] {
		return true
	}
	for i, id := range p.IDs {
		if id != q.IDs[i] || math.Float64bits(p.Weights[i]) != math.Float64bits(q.Weights[i]) {
			return false
		}
	}
	return true
}

// Vector returns p as an independent Vector; the term strings are the
// table's.
func (p Packed) Vector() Vector {
	v := Vector{
		Terms:   make([]string, len(p.IDs)),
		Weights: append([]float64(nil), p.Weights...),
	}
	for i, id := range p.IDs {
		v.Terms[i] = intern.Terms.String(id)
	}
	return v
}

// Retained is a published document as the broker keeps it for the paper's
// "short duration" (Section 4.3): per term of its vector, in the vector's
// order, a term-table id, or the string itself for a miss (a term no
// profile holds), beside the vector's own weights. A hit costs 4 bytes
// where a Vector spends a 16-byte string header.
//
// Retain only looks terms up, so retaining never grows the table, as
// publishing must not. The table never forgets, so a hit's id names its
// term while the document is kept, and a miss some profile interns later
// stays a string. Vector gives the vector back exactly — terms, order and
// weight bits — whatever order, duplicates or weights it held, so what a
// judgment journals and learns from is what was published.
//
// A Retained is immutable: its weights are those of the Vector it was
// built from and of every Vector it returns, and none of them is written.
type Retained struct {
	ids    []uint32 // missID where the term is in misses
	ws     []float64
	misses []string // the terms at missID positions, in order
}

// missID marks a miss in Retained.ids. The table never hands it out: its
// overflow check stops one id short.
const missID = math.MaxUint32

// Retain builds v's retained form: one table lookup per term, ids sized to
// v and the misses to exactly their count.
func Retain(v Vector) Retained {
	r := Retained{ids: make([]uint32, len(v.Terms)), ws: v.Weights}
	misses := 0
	for i, t := range v.Terms {
		id, ok := intern.Terms.Lookup(t)
		if !ok {
			id = missID
			misses++
		}
		r.ids[i] = id
	}
	if misses > 0 {
		r.misses = make([]string, 0, misses)
		for i, id := range r.ids {
			if id == missID {
				r.misses = append(r.misses, v.Terms[i])
			}
		}
	}
	return r
}

// Len returns the number of terms.
func (r Retained) Len() int { return len(r.ids) }

// Vector returns the retained vector: fresh Terms, in which a hit's string
// is the table's, over the retained Weights, which no caller writes.
func (r Retained) Vector() Vector {
	v := Vector{Terms: make([]string, len(r.ids)), Weights: r.ws}
	misses := r.misses
	for i, id := range r.ids {
		if id == missID {
			v.Terms[i], misses = misses[0], misses[1:]
		} else {
			v.Terms[i] = intern.Terms.String(id)
		}
	}
	return v
}

// AppendHits appends the id and weight of every term the table held when r
// was built, in r's order, to ids and ws: the document as a matcher sees
// it, since a term no profile held cannot match.
func (r Retained) AppendHits(ids []uint32, ws []float64) ([]uint32, []float64) {
	for i, id := range r.ids {
		if id != missID {
			ids, ws = append(ids, id), append(ws, r.ws[i])
		}
	}
	return ids, ws
}

// Resolved is a document's weights keyed by term id: the side of a dot
// product that is probed while the Packed side is walked. One Score or
// Observe call resolves its document once — one table lookup per term — and
// then every profile vector costs a probe per pair in a table the size of
// the document, with no string compared. Terms the table has never seen
// are dropped: no packed vector can hold them, so resolving never grows the
// table (publishing must not).
type Resolved struct {
	keys  []uint32 // open addressing on id+1 (the last id needs 2^32 terms interned); 0 is an empty slot
	ws    []float64
	shift uint32 // 32 − log2(len(keys)): Fibonacci hashing keeps the top bits
}

var resolvedPool = sync.Pool{New: func() any { return new(Resolved) }}

// newResolved takes a table from the pool, emptied and sized to stay at
// most half full with n terms in it.
func newResolved(n int) *Resolved {
	logn := max(4, bits.Len(uint(2*n)))
	r := resolvedPool.Get().(*Resolved)
	if size := 1 << logn; cap(r.keys) < size {
		r.keys, r.ws = make([]uint32, size), make([]float64, size)
	} else {
		r.keys, r.ws = r.keys[:size], r.ws[:size]
		clear(r.keys)
	}
	r.shift = uint32(32 - logn)
	return r
}

func (r *Resolved) put(id uint32, w float64) {
	mask := uint32(len(r.keys) - 1)
	h := (id * 0x9E3779B1) >> r.shift
	for r.keys[h] != 0 {
		h = (h + 1) & mask
	}
	r.keys[h], r.ws[h] = id+1, w
}

// Resolve looks doc's terms up in the term table. The result comes from a
// pool: Release it when the dot products are done.
func Resolve(doc Vector) *Resolved {
	r := newResolved(len(doc.Terms))
	for i, t := range doc.Terms {
		if id, ok := intern.Terms.Lookup(t); ok {
			r.put(id, doc.Weights[i])
		}
	}
	return r
}

// Resolved returns p in the probed form, for holding other packed vectors
// against it: its ids are at hand, so nothing is looked up. Release it like
// Resolve's.
func (p Packed) Resolved() *Resolved {
	r := newResolved(len(p.IDs))
	for i, id := range p.IDs {
		r.put(id, p.Weights[i])
	}
	return r
}

// Release returns r to the pool; r must not be used afterwards.
func (r *Resolved) Release() { resolvedPool.Put(r) }

// Dot returns the inner product of p and the resolved document. The
// products are added in p's stored order, the lexicographic order of the
// terms — the order Dot's merge adds them in — so for well-formed vectors
// the sum is Dot(p.Vector(), doc) bit for bit, in every process, whatever
// ids the terms happen to have there.
func (r *Resolved) Dot(p Packed) float64 {
	var s float64
	mask := uint32(len(r.keys) - 1)
	for i, id := range p.IDs {
		for h := (id * 0x9E3779B1) >> r.shift; r.keys[h] != 0; h = (h + 1) & mask {
			if r.keys[h] == id+1 {
				s += p.Weights[i] * r.ws[h]
				break
			}
		}
	}
	return s
}

// AppendPacked appends p's binary encoding to buf: the bytes AppendVector
// writes for p.Vector().
func AppendPacked(buf []byte, p Packed) []byte {
	buf = appendHeader(buf, len(p.IDs))
	for i, id := range p.IDs {
		buf = appendTerm(buf, intern.Terms.String(id), p.Weights[i])
	}
	return buf
}

// DecodePacked decodes one vector from the front of buf straight into ids,
// returning it and the remaining bytes: no string is made for a term the
// table already holds. It accepts exactly what DecodeVector accepts.
func DecodePacked(buf []byte) (Packed, []byte, error) {
	n, buf, err := readHeader(buf)
	if err != nil {
		return Packed{}, nil, err
	}
	p := Packed{
		IDs:     make([]uint32, n),
		Weights: make([]float64, n),
	}
	var term []byte
	for i := range p.IDs {
		if term, p.Weights[i], buf, err = readTerm(buf, term, i); err != nil {
			return Packed{}, nil, err
		}
		p.IDs[i] = intern.Terms.InternBytes(term)
	}
	return p, buf, nil
}

// Digest names an encoded vector: a 128-bit keyed hash of its bytes,
// header included, as a decoder was handed them (DigestOf). Equal vectors
// in two encodings (a length written with a needless continuation byte)
// have two digests. The keys are drawn when the process starts and no
// digest leaves it, so bytes cannot be chosen to share another's name;
// two spans share one by chance at odds of 2^-128.
type Digest [2]uint64

var digestKeys = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// DigestOf returns the Digest of enc, an encoded vector.
func DigestOf(enc []byte) Digest {
	return Digest{maphash.Bytes(digestKeys[0], enc), maphash.Bytes(digestKeys[1], enc)}
}

// A Source holds vectors decoded before, each under the Digest of the bytes
// it was decoded from: the match index (index.Index.Named).
type Source interface {
	Named(Digest) (Packed, bool)
}

// DecodeNamed is DecodePacked for bytes a Source may have seen: it hashes
// the span of the vector at the front of buf, walked by its frame lengths
// alone, and takes src's vector of that name, uncopied, in place of
// decoding. The same bytes, decoded before, gave that vector, and the term
// table never forgets an id, so DecodePacked would return it bit for bit.
// On a miss, or bytes the walk cannot frame, DecodePacked runs unchanged.
// d is the digest of the vector's bytes; it is zero when the decode errs.
func DecodeNamed(buf []byte, src Source) (p Packed, d Digest, rest []byte, err error) {
	if vec, after, ok := span(buf); ok {
		d = DigestOf(vec)
		if held, ok := src.Named(d); ok {
			return held, d, after, nil
		}
	}
	if p, rest, err = DecodePacked(buf); err != nil {
		return Packed{}, Digest{}, nil, err
	}
	return p, d, rest, nil
}
