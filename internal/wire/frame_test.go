package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"mmprofile/internal/pubsub"
)

// jsonFrame is the frame as sessions wrote it before appendFrame existed:
// encoding/json's rendering of the Response, plus Encode's newline.
func jsonFrame(ds []pubsub.Delivery, nextSeq, dropped uint64, closed bool) ([]byte, error) {
	resp := Response{OK: true, NextSeq: nextSeq, Dropped: dropped, Closed: closed}
	for _, d := range ds {
		resp.Deliveries = append(resp.Deliveries, DeliveryMsg{Doc: d.Doc, Score: d.Score, Seq: d.Seq})
	}
	b, err := json.Marshal(resp)
	return append(b, '\n'), err
}

// checkFrame fails unless appendFrame and encoding/json agree on the frame,
// or agree that it cannot be written.
func checkFrame(t *testing.T, ds []pubsub.Delivery, nextSeq, dropped uint64, closed bool) {
	t.Helper()
	want, err := jsonFrame(ds, nextSeq, dropped, closed)
	got, ok := appendFrame([]byte("kept"), ds, nextSeq, dropped, closed)
	if ok != (err == nil) {
		t.Fatalf("appendFrame ok = %v, json.Marshal err = %v (deliveries %+v)", ok, err, ds)
	}
	if ok && string(got) != "kept"+string(want) {
		t.Fatalf("frames differ:\n got %s\nwant kept%s", got, want)
	}
}

// floatEdges are the scores where encoding/json's number format changes
// shape: the zeros, either side of both exponent cutoffs, the exponent whose
// zero padding strconv writes and json strips, and the ends of the range.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1.0 / 3,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e100, -1e21,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-320,
}

// TestAppendFrameEqualsJSON: the hand-written session frame is
// encoding/json's, byte for byte — at every float edge, for every
// combination of the omitempty fields, and for random frames of 0–128
// deliveries.
func TestAppendFrameEqualsJSON(t *testing.T) {
	for _, f := range floatEdges {
		checkFrame(t, []pubsub.Delivery{{Doc: 7, Score: f, Seq: 3}}, 4, 0, false)
	}
	one := []pubsub.Delivery{{Doc: math.MinInt64, Score: 0.5, Seq: math.MaxUint64}}
	for _, ds := range [][]pubsub.Delivery{nil, {}, one} {
		for _, next := range []uint64{0, 1, math.MaxUint64} {
			for _, dropped := range []uint64{0, 9} {
				for _, closed := range []bool{false, true} {
					checkFrame(t, ds, next, dropped, closed)
				}
			}
		}
	}
	// A closed frame with no deliveries omits the array, as omitempty does.
	if got, _ := appendFrame(nil, nil, 5, 3, true); string(got) != `{"ok":true,"next_seq":5,"dropped":3,"closed":true}`+"\n" {
		t.Fatalf("empty closed frame = %s", got)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		ds := make([]pubsub.Delivery, rng.Intn(129))
		for j := range ds {
			score := rng.Float64()
			switch rng.Intn(4) {
			case 0:
				score = math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and ±Inf among them
			case 1:
				score = floatEdges[rng.Intn(len(floatEdges))]
			}
			ds[j] = pubsub.Delivery{Doc: rng.Int63() - rng.Int63(), Score: score, Seq: rng.Uint64() >> rng.Intn(64)}
		}
		checkFrame(t, ds, rng.Uint64()>>rng.Intn(65), rng.Uint64()>>rng.Intn(65), rng.Intn(2) == 0)
	}
}

// TestAppendFrameRefusesWhatJSONRefuses: a NaN or infinite score cannot
// occur (the codecs refuse the weights that would produce one), and if it
// did the outcome is what it was under json.Encoder — no frame, and push
// ends the session on the false.
func TestAppendFrameRefusesWhatJSONRefuses(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ds := []pubsub.Delivery{{Doc: 1, Score: 0.5}, {Doc: 2, Score: f, Seq: 1}}
		if _, ok := appendFrame(nil, ds, 2, 0, false); ok {
			t.Errorf("appendFrame wrote a frame carrying score %v", f)
		}
		if _, err := jsonFrame(ds, 2, 0, false); err == nil {
			t.Errorf("json.Marshal wrote a frame carrying score %v", f)
		}
	}
}

// FuzzAppendFrame is TestAppendFrameEqualsJSON with the fuzzer choosing the
// numbers: n deliveries derived from one (doc, score bits, seq) triple.
func FuzzAppendFrame(f *testing.F) {
	f.Add(int64(0), uint64(0), uint64(0), uint64(0), uint64(0), false, uint8(0))
	f.Add(int64(-5), math.Float64bits(1e-7), uint64(9), uint64(10), uint64(2), true, uint8(3))
	f.Add(int64(1)<<62, math.Float64bits(1e21), uint64(1)<<63, uint64(1)<<63, uint64(0), false, uint8(128))
	f.Add(int64(3), math.Float64bits(math.NaN()), uint64(1), uint64(2), uint64(0), true, uint8(1))
	f.Fuzz(func(t *testing.T, doc int64, scoreBits, seq, nextSeq, dropped uint64, closed bool, n uint8) {
		ds := make([]pubsub.Delivery, int(n)%129)
		for i := range ds {
			// Vary the mantissa's low bits and the numbers per delivery so one
			// input covers many digit counts.
			ds[i] = pubsub.Delivery{Doc: doc + int64(i), Score: math.Float64frombits(scoreBits + uint64(i)*0x9e3779b9), Seq: seq + uint64(i)}
		}
		checkFrame(t, ds, nextSeq, dropped, closed)
	})
}
