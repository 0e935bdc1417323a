package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// trainRandom feeds a profile n random judgments.
func trainRandom(p *Profile, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	terms := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for step := 0; step < n; step++ {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.4 {
				m[tm] = rng.Float64() + 0.01
			}
		}
		v := vsm.FromMap(m).Normalized()
		if v.IsZero() {
			continue
		}
		fd := filter.Relevant
		if rng.Float64() < 0.4 {
			fd = filter.NotRelevant
		}
		p.Observe(v, fd)
	}
}

func TestProfileCodecRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.Theta = 0.23
	opts.Eta = 0.35
	opts.MaxVectors = 7
	opts.DisableDecay = true
	orig := New(opts)
	trainRandom(orig, 5, 120)

	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDefault()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	if restored.Options() != orig.Options() {
		t.Errorf("options: %+v != %+v", restored.Options(), orig.Options())
	}
	if restored.Counts() != orig.Counts() {
		t.Errorf("counts: %+v != %+v", restored.Counts(), orig.Counts())
	}
	if restored.ProfileSize() != orig.ProfileSize() {
		t.Fatalf("size: %d != %d", restored.ProfileSize(), orig.ProfileSize())
	}
	ov, rv := orig.Vectors(), restored.Vectors()
	for i := range ov {
		if math.Abs(ov[i].Strength-rv[i].Strength) > 1e-12 {
			t.Errorf("vector %d strength %v != %v", i, rv[i].Strength, ov[i].Strength)
		}
		if vsm.Cosine(ov[i].Vec, rv[i].Vec) < 1-1e-12 {
			t.Errorf("vector %d content differs", i)
		}
		if ov[i].CreatedAt != rv[i].CreatedAt || ov[i].Incorporations != rv[i].Incorporations {
			t.Errorf("vector %d metadata differs", i)
		}
	}
}

// TestProfileCodecBehavioralEquivalence is the property that matters for
// recovery: a restored profile must behave identically to the original
// under further feedback and scoring.
func TestProfileCodecBehavioralEquivalence(t *testing.T) {
	orig := NewDefault()
	trainRandom(orig, 9, 80)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDefault()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// Continue training both with the same stream and compare scores.
	trainRandom(orig, 31, 60)
	trainRandom(restored, 31, 60)
	probeRng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		m := map[string]float64{}
		for _, tm := range []string{"a", "c", "e", "g", "i"} {
			if probeRng.Float64() < 0.6 {
				m[tm] = probeRng.Float64()
			}
		}
		probe := vsm.FromMap(m).Normalized()
		if math.Abs(orig.Score(probe)-restored.Score(probe)) > 1e-12 {
			t.Fatalf("probe %d: scores diverge (%v vs %v)", i, orig.Score(probe), restored.Score(probe))
		}
	}
	if orig.ProfileSize() != restored.ProfileSize() {
		t.Errorf("sizes diverge: %d vs %d", orig.ProfileSize(), restored.ProfileSize())
	}
}

func TestProfileCodecRejectsCorruption(t *testing.T) {
	p := NewDefault()
	trainRandom(p, 3, 50)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewDefault()
	if err := fresh.UnmarshalBinary(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	if err := fresh.UnmarshalBinary([]byte{99}); err == nil {
		t.Error("bad version accepted")
	}
	// Truncations must error, never panic.
	for cut := 1; cut < len(blob); cut += 7 {
		if err := fresh.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if err := fresh.UnmarshalBinary(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A failed unmarshal must not corrupt the target profile.
	trained := NewDefault()
	trainRandom(trained, 4, 30)
	size := trained.ProfileSize()
	_ = trained.UnmarshalBinary(blob[:len(blob)/2])
	if trained.ProfileSize() != size {
		t.Error("failed UnmarshalBinary mutated the profile")
	}
}

func TestProfileCodecEmptyProfile(t *testing.T) {
	blob, err := NewDefault().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Options{Theta: 0.5, Eta: 0.5, InitialStrength: 2, MaxTerms: 3})
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.ProfileSize() != 0 || restored.Options() != DefaultOptions() {
		t.Error("empty profile round trip failed")
	}
}

// TestProfileCodecAllocatesForTheBytesNotTheCount: the vector count is
// input. An otherwise valid empty snapshot claiming 2^20 vectors used to
// reserve 8 MB of pointers before the first vector turned out to be missing
// — and each of those a vector of 2^20 terms, had the bytes gone on.
func TestProfileCodecAllocatesForTheBytesNotTheCount(t *testing.T) {
	blob, err := NewDefault().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if blob[len(blob)-1] != 0 {
		t.Fatalf("an empty profile's snapshot ends in %d, not its zero vector count", blob[len(blob)-1])
	}
	hostile := binary.AppendUvarint(blob[:len(blob)-1:len(blob)-1], 1<<20)
	hostile = append(binary.AppendUvarint(hostile, 1<<20), 0, 0, 0)
	// TotalAlloc is process-wide, so one window also counts whatever another
	// goroutine allocated meanwhile (the race detector's runtime among
	// them): the least of five runs is the decode's own cost.
	least := uint64(math.MaxUint64)
	for range 5 {
		p := NewDefault()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = p.UnmarshalBinary(hostile)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a snapshot of 2^20 vectors in three bytes was accepted")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("rejecting %d hostile bytes allocated %d bytes", len(hostile), least)
	}
}

// TestProfileCodecRefusesWeightsBeyondFloat32: a weight the match index
// cannot narrow to a finite float32 is refused where it enters — 64 imports
// of such a profile used to hang the index under a shard lock (index's
// TestWeightsBeyondFloat32DoNotHang). MaxFloat32 itself is still a weight.
func TestProfileCodecRefusesWeightsBeyondFloat32(t *testing.T) {
	p := NewDefault()
	p.Observe(vsm.FromMap(map[string]float64{"hostileweight": 1}), filter.Relevant)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(blob, []byte("hostileweight")) + len("hostileweight")
	for bits, ok := range map[uint64]bool{
		0x4800000000000000:                false, // 6.8e38
		0xC800000000000000:                false,
		math.Float64bits(math.MaxFloat32): true,
	} {
		binary.LittleEndian.PutUint64(blob[at:], bits)
		if err := NewDefault().UnmarshalBinary(blob); (err == nil) != ok {
			t.Errorf("weight %v: UnmarshalBinary = %v", math.Float64frombits(bits), err)
		}
	}
}
