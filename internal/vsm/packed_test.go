package vsm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mmprofile/internal/intern"
)

// randVector draws up to n terms from a small shared vocabulary, so two
// draws overlap, with weights on very different scales, so the order of a
// sum shows in its low bits.
func randVector(rng *rand.Rand, n int) Vector {
	m := map[string]float64{}
	for i := rng.Intn(n + 1); i > 0; i-- {
		t := string(rune('a' + rng.Intn(26)))
		if rng.Intn(2) == 0 {
			t += string(rune('a' + rng.Intn(4)))
		}
		m[t] = math.Ldexp(rng.Float64()+0.001, rng.Intn(40)-20)
	}
	return FromMap(m)
}

// sameVector compares two vectors entry by entry, weights on their bits.
func sameVector(a, b Vector) bool {
	if len(a.Terms) != len(b.Terms) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] || math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// checkPackedMirrors holds every Packed function against the Vector
// function it mirrors, for a profile-side vector a and a document b.
func checkPackedMirrors(t *testing.T, a, b Vector) {
	t.Helper()
	p := Pack(a)
	if !sameVector(p.Vector(), a) {
		t.Fatalf("Pack(%v).Vector() = %v", a, p.Vector())
	}
	r := Resolve(b)
	got, want := r.Dot(p), Dot(a, b)
	r.Release()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Resolved.Dot = %x, Dot = %x (%v · %v)", math.Float64bits(got), math.Float64bits(want), a.Terms, b.Terms)
	}
	enc := AppendVector([]byte("x"), a)
	if got := AppendPacked([]byte("x"), p); !bytes.Equal(got, enc) {
		t.Fatalf("AppendPacked wrote %x, AppendVector %x", got, enc)
	}
	v, restV, errV := DecodeVector(append(enc[1:], 7))
	q, restP, errP := DecodePacked(append(enc[1:], 7))
	if (errV == nil) != (errP == nil) {
		t.Fatalf("DecodeVector: %v, DecodePacked: %v", errV, errP)
	}
	if errV == nil && (!sameVector(q.Vector(), v) || !bytes.Equal(restP, restV)) {
		t.Fatalf("DecodePacked = %v + %x, DecodeVector = %v + %x", q.Vector(), restP, v, restV)
	}
}

func TestPackedMirrorsVector(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		checkPackedMirrors(t, randVector(rng, 40), randVector(rng, 40))
	}
	// The edges: nothing in common, nothing at all, everything in common.
	a := vec("alpha", 0.25, "beta", 0.5, "gamma", 1.25)
	for _, b := range []Vector{{}, a, vec("a", 1.0), vec("zeta", 1.0), vec("beta", 3.0)} {
		checkPackedMirrors(t, a, b)
		checkPackedMirrors(t, b, a)
	}
}

// TestPackedEqualIsBitForBit: Equal is the index's sharing test, so it must
// hold exactly when the two vectors score and encode alike: the same ids in
// the same order and the same weight bits — a NaN equals itself, 0 is not
// -0, and a weight one ulp off or a reordered pair is another vector.
func TestPackedEqualIsBitForBit(t *testing.T) {
	nan := math.Float64frombits(0x7FF8000000000001)
	p := Packed{IDs: []uint32{3, 1, 2}, Weights: []float64{0.5, nan, 0}}
	clone := Packed{IDs: []uint32{3, 1, 2}, Weights: []float64{0.5, nan, 0}}
	for name, c := range map[string]struct {
		q    Packed
		want bool
	}{
		"itself":       {p, true},
		"a copy":       {clone, true},
		"minus zero":   {Packed{IDs: p.IDs, Weights: []float64{0.5, nan, math.Copysign(0, -1)}}, false},
		"one ulp":      {Packed{IDs: p.IDs, Weights: []float64{math.Nextafter(0.5, 1), nan, 0}}, false},
		"another NaN":  {Packed{IDs: p.IDs, Weights: []float64{0.5, math.Float64frombits(0x7FF8000000000002), 0}}, false},
		"reordered":    {Packed{IDs: []uint32{1, 3, 2}, Weights: []float64{nan, 0.5, 0}}, false},
		"a term short": {Packed{IDs: p.IDs[:2], Weights: p.Weights[:2]}, false},
	} {
		if got := p.Equal(c.q); got != c.want || c.q.Equal(p) != c.want {
			t.Errorf("%s: Equal = %v, want %v", name, got, c.want)
		}
	}
}

// TestPackedKeepsTermOrderNotIDOrder: ids are arrival order. A vector whose
// terms were interned in descending order still packs, sums and encodes in
// ascending term order.
func TestPackedKeepsTermOrderNotIDOrder(t *testing.T) {
	terms := []string{"order~a", "order~b", "order~c", "order~d"}
	for i := len(terms) - 1; i >= 0; i-- {
		intern.Terms.Intern(terms[i])
	}
	v := Vector{Terms: terms, Weights: []float64{1e-9, 1, 1e9, 3}}
	p := Pack(v)
	for i, term := range terms {
		if intern.Terms.String(p.IDs[i]) != term {
			t.Fatalf("IDs[%d] is %q, want %q", i, intern.Terms.String(p.IDs[i]), term)
		}
	}
	checkPackedMirrors(t, v, Vector{Terms: terms, Weights: []float64{3, 1e9, 1, 1e-9}})
}

// weightBits is a one-term vector whose weight is the given float64 bits.
func weightBits(bits uint64) []byte {
	buf := []byte{1, 1, 'a'}
	return binary.LittleEndian.AppendUint64(buf, bits)
}

// hostileVectors are encodings both decoders must refuse, each for its own
// reason.
func hostileVectors() map[string][]byte {
	wrapped := binary.AppendUvarint([]byte{1}, ^uint64(0)-8) // 10 + l + 8 wraps to 9
	wrapped = append(wrapped, make([]byte, 8)...)
	return map[string][]byte{
		"empty":                 {},
		"unsorted":              AppendVector(nil, Vector{Terms: []string{"b", "a"}, Weights: []float64{1, 2}}),
		"duplicate":             AppendVector(nil, Vector{Terms: []string{"a", "a"}, Weights: []float64{1, 2}}),
		"NaN":                   weightBits(math.Float64bits(math.NaN())),
		"+Inf":                  weightBits(math.Float64bits(math.Inf(1))),
		"-Inf":                  weightBits(math.Float64bits(math.Inf(-1))),
		"6.8e38":                weightBits(0x4800000000000000), // finite, but +Inf as a float32
		"-6.8e38":               weightBits(0xC800000000000000),
		"term length wraps":     wrapped,
		"term longer than rest": {1, 200, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
	}
}

// TestDecodersRefuseTheSameInputs: what DecodeVector refuses DecodePacked
// refuses, and the other way round — including the weight the index cannot
// narrow to a finite float32 and the term length that wraps the bounds sum.
func TestDecodersRefuseTheSameInputs(t *testing.T) {
	for name, buf := range hostileVectors() {
		if _, _, err := DecodeVector(buf); err == nil {
			t.Errorf("DecodeVector accepted %s", name)
		}
		if _, _, err := DecodePacked(buf); err == nil {
			t.Errorf("DecodePacked accepted %s", name)
		}
		if _, d, _, err := DecodeNamed(buf, heldSource{}); err == nil || d != (Digest{}) {
			t.Errorf("DecodeNamed accepted %s, or named it %x", name, d)
		}
	}
	for _, buf := range hugeHeaders() {
		if _, _, err := DecodePacked(buf); err == nil {
			t.Errorf("DecodePacked accepted a %d-byte million-term vector", len(buf))
		}
	}
	// The largest weight the index can hold is still a weight.
	ok := weightBits(math.Float64bits(math.MaxFloat32))
	if _, _, err := DecodeVector(ok); err != nil {
		t.Errorf("DecodeVector refused MaxFloat32: %v", err)
	}
	if _, _, err := DecodePacked(ok); err != nil {
		t.Errorf("DecodePacked refused MaxFloat32: %v", err)
	}
	// Every truncation of a good vector is refused by both.
	buf := AppendVector(nil, vec("alpha", 1.0, "beta", 2.0))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodePacked(buf[:cut]); err == nil {
			t.Errorf("DecodePacked accepted a truncation at %d", cut)
		}
	}
}

// heldSource is a Source over a map: under each digest, the vector
// DecodePacked gave for the bytes it names.
type heldSource map[Digest]Packed

func (s heldSource) Named(d Digest) (Packed, bool) {
	p, ok := s[d]
	return p, ok
}

// hold decodes the vector at the front of buf, if it decodes, and holds it
// under the digest of its bytes.
func (s heldSource) hold(buf []byte) {
	if p, rest, err := DecodePacked(buf); err == nil {
		s[DigestOf(buf[:len(buf)-len(rest)])] = p
	}
}

// TestDecodeNamedTakesTheHeldVector: a hit is the source's vector itself —
// its very slices, and no term interned — with the bytes after it. The same
// vector with one length in two bytes has a digest of its own: it misses
// and decodes to an Equal vector in arrays of its own.
func TestDecodeNamedTakesTheHeldVector(t *testing.T) {
	enc := AppendVector(nil, vec("named~a", 1.0, "named~b", 0.5))
	src := heldSource{}
	src.hold(enc)
	held := src[DigestOf(enc)]
	terms := intern.Terms.Len()
	p, d, rest, err := DecodeNamed(append(slices.Clip(enc), 9), src)
	if err != nil || &p.IDs[0] != &held.IDs[0] || &p.Weights[0] != &held.Weights[0] || !bytes.Equal(rest, []byte{9}) {
		t.Fatalf("DecodeNamed = %v %x %v, want the held vector's slices and rest 09", p, rest, err)
	}
	if d != DigestOf(enc) || intern.Terms.Len() != terms {
		t.Errorf("named %x, table %d → %d terms", d, terms, intern.Terms.Len())
	}
	long := append([]byte{2, 0x87, 0}, enc[2:]...) // len("named~a") = 7, in two bytes
	q, e, _, err := DecodeNamed(long, src)
	if err != nil || !q.Equal(held) || &q.IDs[0] == &held.IDs[0] || e == d || e != DigestOf(long) {
		t.Errorf("the two-byte length: %v %x %v; want an Equal vector of its own under another digest", q, e, err)
	}
}

// FuzzDecodePacked holds the two decoders to each other, and DecodeNamed
// to DecodePacked over a source pre-seeded with every seed that decodes —
// among them the vectors of a profile, alone and with bytes after them — so
// that inputs both hit it and miss it: the same Packed bits, the same rest,
// and an error exactly when DecodePacked errs.
func FuzzDecodePacked(f *testing.F) {
	seeds := [][]byte{
		{0},
		AppendVector(nil, vec("alpha", 1.0, "beta", 0.5)),
		append(AppendVector(nil, vec("a", 1.0)), 0xFF, 0x01),
		{2, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0x40}, // "" then "a"
		{1, 0x81, 0, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},                         // "a"'s length in two bytes
	}
	seeds = append(seeds, hugeHeaders()...)
	for _, b := range hostileVectors() {
		seeds = append(seeds, b)
	}
	rng := rand.New(rand.NewSource(44))
	var profile []byte
	for i := 0; i < 7; i++ {
		v := AppendVector(nil, randVector(rng, 40))
		seeds = append(seeds, v, append(slices.Clip(v), 7, 0, 1))
		profile = append(profile, v...)
	}
	seeds = append(seeds, profile)
	src := heldSource{}
	for _, b := range seeds {
		f.Add(b)
		src.hold(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, restV, errV := DecodeVector(data)
		p, restP, errP := DecodePacked(data) // must not panic
		if (errV == nil) != (errP == nil) {
			t.Fatalf("DecodeVector: %v, DecodePacked: %v", errV, errP)
		}
		q, d, restQ, errQ := DecodeNamed(data, src)
		if (errQ == nil) != (errP == nil) {
			t.Fatalf("DecodeNamed: %v, DecodePacked: %v", errQ, errP)
		}
		if errV != nil {
			return
		}
		if !q.Equal(p) || !bytes.Equal(restQ, restP) {
			t.Fatalf("DecodeNamed = %v + %x, DecodePacked = %v + %x", q.Vector(), restQ, p.Vector(), restP)
		}
		if d != DigestOf(data[:len(data)-len(restP)]) {
			t.Fatalf("DecodeNamed named %x, not the digest of the bytes it read", d)
		}
		if !sameVector(p.Vector(), v) || !bytes.Equal(restP, restV) {
			t.Fatalf("DecodePacked = %v + %x, DecodeVector = %v + %x", p.Vector(), restP, v, restV)
		}
		for i, w := range v.Weights {
			if math.IsInf(float64(float32(w)), 0) {
				t.Fatalf("accepted weight %v of %q, infinite as a float32", w, v.Terms[i])
			}
		}
		// A document sharing every other term, and the vector itself.
		doc := Vector{}
		for i := 0; i < len(v.Terms); i += 2 {
			doc.Terms = append(doc.Terms, v.Terms[i])
			doc.Weights = append(doc.Weights, v.Weights[len(v.Terms)-1-i])
		}
		checkPackedMirrors(t, v, doc)
		checkPackedMirrors(t, v, v)
	})
}

// checkRetained holds Retain(v) to its contract: Vector gives v back bit
// for bit, AppendHits gives exactly the terms the table holds with their
// weights, in v's order, and retaining grows the table by nothing.
func checkRetained(t *testing.T, v Vector) {
	t.Helper()
	before := intern.Terms.Len()
	r := Retain(v)
	if intern.Terms.Len() != before {
		t.Fatalf("Retain grew the term table from %d to %d", before, intern.Terms.Len())
	}
	if got := r.Vector(); !sameVector(got, v) || r.Len() != len(v.Terms) {
		t.Fatalf("Retain(%v).Vector() = %v", v, got)
	}
	ids, ws := r.AppendHits(nil, nil)
	k := 0
	for i, term := range v.Terms {
		id, ok := intern.Terms.Lookup(term)
		if !ok {
			continue
		}
		if k == len(ids) || ids[k] != id || math.Float64bits(ws[k]) != math.Float64bits(v.Weights[i]) {
			t.Fatalf("hit %d of %q: AppendHits gave %v %v", k, v.Terms, ids, ws)
		}
		k++
	}
	if k != len(ids) || len(ids) != len(ws) {
		t.Fatalf("AppendHits gave %d ids and %d weights for %d hits", len(ids), len(ws), k)
	}
}

// TestRetainedRoundTrip: what PublishVector accepts from an in-process
// caller comes back from its retained form exactly, whatever the weights,
// term order or share of terms the table holds.
func TestRetainedRoundTrip(t *testing.T) {
	for _, term := range []string{"keep~a", "keep~c", "keep~e"} {
		intern.Terms.Intern(term)
	}
	w := func(bits uint64) float64 { return math.Float64frombits(bits) }
	cases := map[string]Vector{
		"empty":    {},
		"all hit":  {Terms: []string{"keep~a", "keep~c", "keep~e"}, Weights: []float64{0.25, 0.5, 1.25}},
		"all miss": {Terms: []string{"keep~b", "keep~d"}, Weights: []float64{1, 2}},
		"mixed":    {Terms: []string{"keep~a", "keep~b", "keep~c", "keep~d", "keep~e"}, Weights: []float64{1, 2, 3, 4, 5}},
		"unsorted": {Terms: []string{"keep~e", "keep~b", "keep~a"}, Weights: []float64{1, 2, 3}},
		"duplicate": {Terms: []string{"keep~a", "keep~a", "keep~b", "keep~b"},
			Weights: []float64{1, 2, 3, 4}},
		"hostile weights": {Terms: []string{"keep~a", "keep~b", "keep~c", "keep~d", "keep~e", "keep~f", "keep~g"},
			Weights: []float64{w(0x7ff8000000000001), w(0xfff0000000000abc), math.Inf(1), math.Inf(-1),
				w(0x4800000000000000), w(1), -w(0x000fffffffffffff)}},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkRetained(t, v) })
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 500; i++ {
		v := randVector(rng, 40)
		for _, term := range v.Terms {
			if rng.Intn(2) == 0 {
				intern.Terms.Intern(term)
			}
		}
		checkRetained(t, v)
	}
}

// FuzzRetainedDocument: any vector — terms in any order, repeated or
// empty, some interned and some not, weights of any bits — survives
// retention exactly.
func FuzzRetainedDocument(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{1, 'a', 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 'b', 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint64(1))
	f.Add([]byte{1, 'b', 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 0x48, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, ^uint64(0))
	for _, b := range hostileVectors() {
		f.Add(b, uint64(0b101))
	}
	f.Fuzz(func(t *testing.T, data []byte, interned uint64) {
		// data is a run of {length byte, term bytes, 8 weight bytes}; bit
		// i%64 of interned says whether term i is in the table.
		var v Vector
		for len(data) > 0 {
			l := int(data[0])
			if len(data) < 1+l+8 {
				break
			}
			term := "fuzz~" + string(data[1:1+l])
			if interned>>(len(v.Terms)%64)&1 == 1 {
				intern.Terms.Intern(term)
			}
			v.Terms = append(v.Terms, term)
			v.Weights = append(v.Weights, math.Float64frombits(binary.LittleEndian.Uint64(data[1+l:])))
			data = data[1+l+8:]
		}
		checkRetained(t, v)
	})
}

// TestPackedCostsTwelveBytesAPair: a full profile vector — the paper's 100
// terms — costs its ids and weights, in two allocations, whichever way it
// was made, and nothing per term once the table knows the terms.
func TestPackedCostsTwelveBytesAPair(t *testing.T) {
	const terms = 100
	m := map[string]float64{}
	for i := 0; i < terms; i++ {
		m[string(rune('a'+i%26))+string(rune('a'+i/26))+"~size"] = float64(i + 1)
	}
	v := FromMap(m)
	enc := AppendVector(nil, v)
	Pack(v) // the table learns the terms once
	var sink Packed
	for name, fn := range map[string]func(){
		"Pack":         func() { sink = Pack(v) },
		"DecodePacked": func() { sink, _, _ = DecodePacked(enc) },
	} {
		const runs = 100
		if allocs := testing.AllocsPerRun(runs, fn); allocs > 2 {
			t.Errorf("%s: %v allocations for one vector, want ≤ 2", name, allocs)
		}
		perPair := float64(allocatedBytes(func() {
			for i := 0; i < runs; i++ {
				fn()
			}
		})) / runs / terms
		t.Logf("%s: %.2f B per (vector, term) pair", name, perPair)
		if perPair > 13.5 {
			t.Errorf("%s: %.2f B per pair, want ≤ 13.5 (4 B id + 8 B weight + size-class slack)", name, perPair)
		}
	}
	if !reflect.DeepEqual(sink.Vector(), v) {
		t.Error("the measured vector is not the vector")
	}
}
