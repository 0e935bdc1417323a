package rocchio

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"mmprofile/internal/filter"
)

func TestRocchioCodecRoundTrip(t *testing.T) {
	orig := NewRG(10)
	orig.Observe(vec("cat", 0.7, "dog", 0.3), filter.Relevant)
	orig.Observe(vec("stock", 0.9), filter.NotRelevant)
	// ... leaves 2 judgments pending (group of 10).
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewRI() // wrong shape on purpose; Unmarshal must fix it
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "RG10" || restored.GroupSize() != 10 {
		t.Errorf("identity: %s/%d", restored.Name(), restored.GroupSize())
	}
	if restored.Pending() != orig.Pending() || restored.Updates() != orig.Updates() {
		t.Errorf("buffer state: pending %d/%d updates %d/%d",
			restored.Pending(), orig.Pending(), restored.Updates(), orig.Updates())
	}
	// Behavioral equivalence: complete the group identically on both.
	for i := 0; i < 8; i++ {
		v := vec("cat", 1.0, "extra", 0.2)
		orig.Observe(v, filter.Relevant)
		restored.Observe(v, filter.Relevant)
	}
	if orig.Updates() != 1 || restored.Updates() != 1 {
		t.Fatalf("group did not complete: %d/%d", orig.Updates(), restored.Updates())
	}
	probe := vec("cat", 1.0, "dog", 1.0)
	if math.Abs(orig.Score(probe)-restored.Score(probe)) > 1e-12 {
		t.Errorf("scores diverge: %v vs %v", orig.Score(probe), restored.Score(probe))
	}
}

func TestRocchioCodecAppliedProfile(t *testing.T) {
	orig := NewRI()
	orig.Observe(vec("cat", 0.5, "dog", 0.5), filter.Relevant)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewRI()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Profile().ToMap(), orig.Profile().ToMap(); len(got) != len(want) {
		t.Errorf("profile: %v vs %v", got, want)
	}
}

func TestRocchioCodecRejectsCorruption(t *testing.T) {
	orig := NewRG(5)
	orig.Observe(vec("cat", 1.0), filter.Relevant)
	blob, _ := orig.MarshalBinary()
	fresh := NewRI()
	if err := fresh.UnmarshalBinary(nil); err == nil {
		t.Error("empty blob accepted")
	}
	for cut := 1; cut < len(blob); cut += 5 {
		if err := fresh.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if err := fresh.UnmarshalBinary(append(append([]byte{}, blob...), 1)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestNRNCodecRoundTrip(t *testing.T) {
	orig := NewNRN()
	orig.Observe(vec("cat", 1.0), filter.Relevant)
	orig.Observe(vec("stock", 1.0, "bond", 0.5), filter.Relevant)
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewNRN()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.ProfileSize() != 2 {
		t.Fatalf("size = %d", restored.ProfileSize())
	}
	probe := vec("stock", 1.0)
	if math.Abs(orig.Score(probe)-restored.Score(probe)) > 1e-12 {
		t.Error("scores diverge")
	}
}

func TestNRNCodecRejectsCorruption(t *testing.T) {
	orig := NewNRN()
	orig.Observe(vec("cat", 1.0), filter.Relevant)
	blob, _ := orig.MarshalBinary()
	fresh := NewNRN()
	for cut := 1; cut < len(blob); cut += 3 {
		if err := fresh.UnmarshalBinary(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A vector count the remaining bytes cannot hold is refused before
	// anything is allocated for it (same rule as vsm.DecodeVector's).
	hostile := append([]byte{nrnCodecVersion}, binary.AppendUvarint(nil, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewNRN().UnmarshalBinary(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("2^20 NRN vectors in no bytes accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
		t.Errorf("rejecting a hostile NRN count allocated %d bytes", got)
	}
}
