package vsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"mmprofile/internal/intern"
)

// Binary layout of a vector, Vector and Packed alike (all integers
// unsigned varints):
//
//	uvarint  term count n
//	n ×      { uvarint len(term), term bytes, 8-byte float64 weight }
//
// The format is self-delimiting so vectors can be concatenated in logs and
// snapshots.

func appendHeader(buf []byte, n int) []byte {
	return binary.AppendUvarint(buf, uint64(n))
}

func appendTerm(buf []byte, t string, w float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	buf = append(buf, t...)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
}

// AppendVector appends v's binary encoding to buf and returns the extended
// slice.
func AppendVector(buf []byte, v Vector) []byte {
	buf = appendHeader(buf, len(v.Terms))
	for i, t := range v.Terms {
		buf = appendTerm(buf, t, v.Weights[i])
	}
	return buf
}

// EncodedSize is the length of v's binary encoding, what AppendVector
// appends.
func EncodedSize(v Vector) int {
	n := uvarintSize(len(v.Terms))
	for _, t := range v.Terms {
		n += uvarintSize(len(t)) + len(t) + 8
	}
	return n
}

// uvarintSize is the length of n's uvarint encoding.
func uvarintSize(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// minTermBytes is the least a term can occupy: a one-byte length, no bytes,
// and the weight.
const minTermBytes = 1 + 8

// readHeader reads a vector's term count and refuses one the remaining
// bytes cannot hold: the header is input, so a decoder allocates for what
// the bytes can hold, not for what it says.
func readHeader(buf []byte) (int, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, fmt.Errorf("vsm: corrupt vector header")
	}
	buf = buf[k:]
	if n > uint64(len(buf)/minTermBytes) {
		return 0, nil, fmt.Errorf("vsm: vector of %d terms in %d bytes", n, len(buf))
	}
	return int(n), buf, nil
}

// readTerm reads term i — its bytes, still in buf, and its weight — and
// returns the remaining bytes. prev is term i−1 (unused for i = 0): terms
// must ascend strictly. A weight must be finite as a float32, the range
// of the index's posting weights: one that overflows there is an infinite
// bound on every score it enters. Both decoders read through here, so they
// refuse the same inputs.
func readTerm(buf, prev []byte, i int) ([]byte, float64, []byte, error) {
	l, k := binary.Uvarint(buf)
	// Compared this way round: a length near 2^64 would wrap k+l+8.
	if k <= 0 || len(buf)-k < 8 || l > uint64(len(buf)-k-8) {
		return nil, 0, nil, fmt.Errorf("vsm: truncated vector term %d", i)
	}
	term := buf[k : k+int(l)]
	buf = buf[k+int(l):]
	w := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
	if math.IsNaN(w) || math.IsInf(float64(float32(w)), 0) {
		return nil, 0, nil, fmt.Errorf("vsm: weight of term %d is not finite as float32", i)
	}
	if i > 0 && bytes.Compare(prev, term) >= 0 {
		return nil, 0, nil, fmt.Errorf("vsm: vector terms not sorted/unique")
	}
	return term, w, buf[8:], nil
}

// span splits buf after the vector at its front by its frame lengths alone
// — the framing readTerm checks, no term read or compared — and reports
// whether they frame one. Bytes it frames may still hold a vector the
// decoders refuse (unsorted terms, a weight infinite as a float32); bytes
// it does not frame, every decoder refuses.
func span(buf []byte) (vec, rest []byte, ok bool) {
	n, body, err := readHeader(buf)
	if err != nil {
		return nil, nil, false
	}
	off := len(buf) - len(body)
	for ; n > 0; n-- {
		if off == len(buf) {
			return nil, nil, false
		}
		l, k := uint64(buf[off]), 1 // most terms: one length byte
		if l >= 0x80 {
			l, k = binary.Uvarint(buf[off:])
		}
		if k <= 0 || len(buf)-off-k < 8 || l > uint64(len(buf)-off-k-8) {
			return nil, nil, false
		}
		off += k + int(l) + 8
	}
	return buf[:off], buf[off:], true
}

// DecodeVector decodes one vector from the front of buf, returning it and
// the remaining bytes. Every term string is the process-wide term table's
// copy (intern.Terms), not a fresh allocation. It is the decoder of
// vectors that stay strings — a journaled judgment's document vector;
// profile vectors decode through DecodePacked.
func DecodeVector(buf []byte) (Vector, []byte, error) {
	n, buf, err := readHeader(buf)
	if err != nil {
		return Vector{}, nil, err
	}
	v := Vector{
		Terms:   make([]string, n),
		Weights: make([]float64, n),
	}
	var term []byte
	for i := range v.Terms {
		if term, v.Weights[i], buf, err = readTerm(buf, term, i); err != nil {
			return Vector{}, nil, err
		}
		v.Terms[i] = intern.Terms.Canon(term)
	}
	return v, buf, nil
}
