package vsm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestVectorCodecRoundTrip(t *testing.T) {
	cases := []Vector{
		{},
		vec("a", 1.0),
		vec("alpha", 0.25, "beta", 0.5, "gamma", 1.25),
		vec(strings.Repeat("long", 40), 0.5), // a two-byte length
	}
	for _, v := range cases {
		buf := AppendVector(nil, v)
		if n := EncodedSize(v); n != len(buf) {
			t.Errorf("EncodedSize %d, AppendVector wrote %d bytes", n, len(buf))
		}
		got, rest, err := DecodeVector(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("decode left %d bytes", len(rest))
		}
		if !reflect.DeepEqual(got.ToMap(), v.ToMap()) {
			t.Errorf("round trip: got %v want %v", got.ToMap(), v.ToMap())
		}
	}
}

func TestVectorCodecConcatenation(t *testing.T) {
	a := vec("x", 1.0)
	b := vec("y", 2.0, "z", 3.0)
	buf := AppendVector(AppendVector(nil, a), b)
	gotA, rest, err := DecodeVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := DecodeVector(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(gotA.ToMap(), a.ToMap()) || !reflect.DeepEqual(gotB.ToMap(), b.ToMap()) {
		t.Error("concatenated vectors corrupted")
	}
}

func TestVectorCodecRejectsCorruption(t *testing.T) {
	buf := AppendVector(nil, vec("alpha", 1.0, "beta", 2.0))
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeVector(buf[:cut]); err == nil && cut < len(buf) {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Unsorted terms are rejected.
	bad := AppendVector(nil, Vector{Terms: []string{"b", "a"}, Weights: []float64{1, 2}})
	if _, _, err := DecodeVector(bad); err == nil {
		t.Error("unsorted vector accepted")
	}
}

func TestVectorCodecPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		m := map[string]float64{}
		for i := 0; i < int(n%40); i++ {
			m[randTerm(rng)] = rng.Float64()*10 + 0.001
		}
		v := FromMap(m)
		got, rest, err := DecodeVector(AppendVector(nil, v))
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(got.ToMap(), v.ToMap())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randTerm(rng *rand.Rand) string {
	b := make([]byte, 1+rng.Intn(10))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// hugeHeaders are a few bytes that announce a million-term vector.
func hugeHeaders() [][]byte {
	n := binary.AppendUvarint(nil, 1<<20)
	return [][]byte{
		n,
		append(append([]byte{}, n...), 1, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f),
		binary.AppendUvarint(nil, 1<<62),
	}
}

// allocatedBytes is what fn allocated, live or not: the least of five
// runs. TotalAlloc is process-wide, so an allocation on another goroutine
// (the race detector's, a parallel test's) can land in the window and only
// ever adds bytes; the minimum is fn's own.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeVectorAllocatesForTheBytesNotTheHeader: the term count is
// input. A ten-byte message claiming 2^20 terms used to reserve 24 MB of
// slices before the first term turned out to be missing. Both decoders.
func TestDecodeVectorAllocatesForTheBytesNotTheHeader(t *testing.T) {
	for name, decode := range map[string]func([]byte) error{
		"DecodeVector": func(buf []byte) error { _, _, err := DecodeVector(buf); return err },
		"DecodePacked": func(buf []byte) error { _, _, err := DecodePacked(buf); return err },
	} {
		for _, buf := range hugeHeaders() {
			var err error
			got := allocatedBytes(func() { err = decode(buf) })
			if err == nil {
				t.Errorf("%s: %d bytes decoded as a vector of many terms", name, len(buf))
			}
			if got > 4096 {
				t.Errorf("%s: decoding %d hostile bytes allocated %d bytes", name, len(buf), got)
			}
		}
	}
}

// TestDecodedVectorsShareTerms: equal terms of separately decoded vectors
// are one string, the table's.
func TestDecodedVectorsShareTerms(t *testing.T) {
	a, _, err := DecodeVector(AppendVector(nil, vec("alpha", 1.0, "shared", 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DecodeVector(AppendVector(nil, vec("shared", 2.0, "zeta", 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Terms[1] != "shared" || unsafe.StringData(a.Terms[1]) != unsafe.StringData(b.Terms[0]) {
		t.Errorf("two decodes of %q hold two strings", a.Terms[1])
	}
}
