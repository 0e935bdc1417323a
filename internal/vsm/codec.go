package vsm

import (
	"encoding/binary"
	"fmt"
	"math"

	"mmprofile/internal/intern"
)

// Binary layout of a Vector (all integers unsigned varints):
//
//	uvarint  term count n
//	n ×      { uvarint len(term), term bytes, 8-byte float64 weight }
//
// The format is self-delimiting so vectors can be concatenated in logs and
// snapshots.

// AppendVector appends v's binary encoding to buf and returns the extended
// slice.
func AppendVector(buf []byte, v Vector) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v.Terms)))
	for i, t := range v.Terms {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Weights[i]))
	}
	return buf
}

// minTermBytes is the least a term can occupy: a one-byte length, no bytes,
// and the weight.
const minTermBytes = 1 + 8

// DecodeVector decodes one vector from the front of buf, returning it and
// the remaining bytes. Every term string is the process-wide term table's
// copy (intern.Terms), not a fresh allocation: import, hydration and WAL
// replay all come through here, so resident profiles share their terms.
func DecodeVector(buf []byte) (Vector, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return Vector{}, nil, fmt.Errorf("vsm: corrupt vector header")
	}
	buf = buf[k:]
	// The header is input: allocate for what the bytes can hold, not for
	// what it says.
	if n > uint64(len(buf)/minTermBytes) {
		return Vector{}, nil, fmt.Errorf("vsm: vector of %d terms in %d bytes", n, len(buf))
	}
	v := Vector{
		Terms:   make([]string, 0, n),
		Weights: make([]float64, 0, n),
	}
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(buf)
		if k <= 0 || uint64(len(buf)) < uint64(k)+l+8 {
			return Vector{}, nil, fmt.Errorf("vsm: truncated vector term %d", i)
		}
		buf = buf[k:]
		v.Terms = append(v.Terms, intern.Terms.Canon(buf[:l]))
		buf = buf[l:]
		w := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
		buf = buf[8:]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return Vector{}, nil, fmt.Errorf("vsm: non-finite weight in term %d", i)
		}
		v.Weights = append(v.Weights, w)
	}
	for i := 1; i < len(v.Terms); i++ {
		if v.Terms[i-1] >= v.Terms[i] {
			return Vector{}, nil, fmt.Errorf("vsm: vector terms not sorted/unique")
		}
	}
	return v, buf, nil
}
