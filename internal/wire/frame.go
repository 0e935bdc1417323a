package wire

import (
	"math"
	"strconv"
	"sync"

	"mmprofile/internal/pubsub"
)

// frameScratch is what building one session frame needs and a resting
// session does not: the batch Take fills and the bytes conn.Write sends.
// A session borrows one from a wake to the end of the write.
type frameScratch struct {
	ds  []pubsub.Delivery
	out []byte
}

var framePool = sync.Pool{New: func() any { return new(frameScratch) }}

// appendFrame appends one session frame to b: byte for byte what
// json.Encoder.Encode(Response{OK: true, Deliveries: …, NextSeq: nextSeq,
// Dropped: dropped, Closed: closed}) writes — key order, omitempty, number
// formats, trailing newline (TestAppendFrameEqualsJSON, FuzzAppendFrame).
// It is the one frame shape written by hand, because it is the one written
// per delivery; every other reply goes through encoding/json. ok is false
// for a score JSON cannot carry (NaN, ±Inf), where Encode errors.
func appendFrame(b []byte, ds []pubsub.Delivery, nextSeq, dropped uint64, closed bool) (_ []byte, ok bool) {
	b = append(b, `{"ok":true`...)
	for i, d := range ds {
		if math.IsNaN(d.Score) || math.IsInf(d.Score, 0) {
			return b, false
		}
		if i == 0 {
			b = append(b, `,"deliveries":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"doc":`...)
		b = strconv.AppendInt(b, d.Doc, 10)
		b = append(b, `,"score":`...)
		b = appendFloat(b, d.Score)
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, d.Seq, 10)
		b = append(b, '}')
	}
	if len(ds) > 0 {
		b = append(b, ']')
	}
	if nextSeq != 0 {
		b = append(b, `,"next_seq":`...)
		b = strconv.AppendUint(b, nextSeq, 10)
	}
	if dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendUint(b, dropped, 10)
	}
	if closed {
		b = append(b, `,"closed":true`...)
	}
	return append(b, "}\n"...), true
}

// appendFloat is encoding/json's float64 format: ES6 number-to-string —
// shortest digits, exponent form below 1e-6 and from 1e21, and a negative
// exponent without strconv's zero padding (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
