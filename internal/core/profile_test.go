package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mmprofile/internal/filter"
	"mmprofile/internal/rocchio"
	"mmprofile/internal/vsm"
)

func vec(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

func TestEmptyProfile(t *testing.T) {
	p := NewDefault()
	if p.ProfileSize() != 0 {
		t.Fatal("new profile not empty")
	}
	if got := p.Score(vec("x", 1.0)); got != 0 {
		t.Errorf("empty profile Score = %v", got)
	}
	// Negative feedback on an empty profile is ignored (§3.2).
	p.Observe(vec("x", 1.0), filter.NotRelevant)
	if p.ProfileSize() != 0 {
		t.Error("negative feedback created a vector in an empty profile")
	}
	if p.Counts().Ignored != 1 {
		t.Errorf("Ignored = %d", p.Counts().Ignored)
	}
	// Positive feedback seeds the profile.
	p.Observe(vec("x", 1.0), filter.Relevant)
	if p.ProfileSize() != 1 {
		t.Error("positive feedback did not create a vector")
	}
}

func TestZeroVectorIgnored(t *testing.T) {
	p := NewDefault()
	p.Observe(vsm.Vector{}, filter.Relevant)
	if p.ProfileSize() != 0 || p.Counts().Ignored != 1 {
		t.Error("zero document vector not ignored")
	}
}

func TestIncorporateMovesTowardDocument(t *testing.T) {
	p := NewDefault()
	a := vec("cat", 1.0, "dog", 1.0)
	b := vec("cat", 1.0, "fish", 1.0) // cosine(a,b) = 0.5 > θ
	p.Observe(a, filter.Relevant)
	before := p.Score(b)
	p.Observe(b, filter.Relevant)
	if p.ProfileSize() != 1 {
		t.Fatalf("incorporation changed profile size to %d", p.ProfileSize())
	}
	after := p.Score(b)
	if after <= before {
		t.Errorf("vector did not move toward document: %v -> %v", before, after)
	}
}

func TestNegativeFeedbackMovesAway(t *testing.T) {
	p := NewDefault()
	a := vec("cat", 1.0, "dog", 1.0)
	b := vec("cat", 1.0) // similar to a
	p.Observe(a, filter.Relevant)
	before := p.Score(b)
	p.Observe(b, filter.NotRelevant)
	if p.ProfileSize() == 1 {
		after := p.Score(b)
		if after >= before {
			t.Errorf("vector did not move away: %v -> %v", before, after)
		}
	}
	// (If the vector was deleted by decay, moving away is moot.)
}

func TestDissimilarRelevantCreatesVector(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("cat", 1.0, "dog", 1.0), filter.Relevant)
	p.Observe(vec("stock", 1.0, "bond", 1.0), filter.Relevant) // orthogonal
	if p.ProfileSize() != 2 {
		t.Fatalf("profile size = %d, want 2", p.ProfileSize())
	}
	if p.Counts().Created != 2 {
		t.Errorf("Created = %d", p.Counts().Created)
	}
}

func TestDissimilarNonRelevantIgnored(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("cat", 1.0), filter.Relevant)
	p.Observe(vec("stock", 1.0), filter.NotRelevant)
	if p.ProfileSize() != 1 {
		t.Errorf("profile size = %d, want 1", p.ProfileSize())
	}
}

func TestSimilarNonRelevantIncorporated(t *testing.T) {
	// Non-relevant documents cannot create clusters but are incorporated
	// into similar ones (§3.1).
	o := DefaultOptions()
	o.DisableDecay = true // keep the vector alive to observe the move
	p := New(o)
	p.Observe(vec("cat", 1.0, "dog", 1.0), filter.Relevant)
	p.Observe(vec("cat", 1.0, "dog", 1.0, "noise", 0.1), filter.NotRelevant)
	if p.Counts().Incorporated != 1 {
		t.Errorf("Incorporated = %d", p.Counts().Incorporated)
	}
}

func TestScoreIsMaxCosine(t *testing.T) {
	p := NewDefault()
	a := vec("cat", 1.0)
	b := vec("stock", 1.0)
	p.Observe(a, filter.Relevant)
	p.Observe(b, filter.Relevant)
	probe := vec("stock", 1.0, "bond", 1.0)
	want := vsm.Cosine(b, probe)
	if got := p.Score(probe); math.Abs(got-want) > 1e-9 {
		t.Errorf("Score = %v, want max cosine %v", got, want)
	}
}

func TestMergePullsClustersTogether(t *testing.T) {
	o := DefaultOptions()
	o.Theta = 0.3
	o.Eta = 0.5
	o.DisableDecay = true
	p := New(o)
	// Two clusters sharing no terms.
	p.Observe(vec("cat", 1.0), filter.Relevant)
	p.Observe(vec("dog", 1.0), filter.Relevant)
	if p.ProfileSize() != 2 {
		t.Fatalf("setup: size = %d", p.ProfileSize())
	}
	// Documents containing both concepts drag the vectors toward each
	// other until they merge.
	bridge := vec("cat", 1.0, "dog", 1.0)
	for i := 0; i < 10 && p.ProfileSize() > 1; i++ {
		p.Observe(bridge, filter.Relevant)
	}
	if p.ProfileSize() != 1 {
		t.Fatalf("clusters never merged: size = %d", p.ProfileSize())
	}
	if p.Counts().Merged == 0 {
		t.Error("merge not counted")
	}
}

func TestMergeSumsStrengths(t *testing.T) {
	// With decay disabled strengths stay at 1.0, so a merge must produce a
	// vector of strength exactly 2.0.
	o := DefaultOptions()
	o.Theta = 0.1
	o.DisableDecay = true
	p := New(o)
	p.Observe(vec("cat", 1.0), filter.Relevant)
	p.Observe(vec("dog", 1.0), filter.Relevant)
	bridge := vec("cat", 1.0, "dog", 1.0)
	for i := 0; i < 20 && p.ProfileSize() > 1; i++ {
		p.Observe(bridge, filter.Relevant)
	}
	if p.ProfileSize() != 1 {
		t.Fatalf("no merge happened")
	}
	got := p.Vectors()[0].Strength
	if math.Abs(got-2.0) > 1e-9 {
		t.Errorf("merged strength = %v, want 2.0", got)
	}
}

func TestDecayDeletesVector(t *testing.T) {
	p := NewDefault() // c = 0.5, threshold 1.0, initial 1.0
	target := vec("cat", 1.0, "dog", 1.0)
	p.Observe(target, filter.Relevant)
	// Build up strength with positives.
	p.Observe(target, filter.Relevant)
	p.Observe(target, filter.Relevant) // strength = e^1.0 ≈ 2.72
	// Now negatives: strength e^1.0 → e^0.5 → e^0 = 1.0 (not < 1) → e^-0.5 → deleted.
	for i := 0; i < 5 && p.ProfileSize() > 0; i++ {
		p.Observe(target, filter.NotRelevant)
	}
	if p.ProfileSize() != 0 {
		t.Fatalf("vector survived sustained negative feedback: %s", p)
	}
	if p.Counts().Deleted == 0 && p.Counts().Annihilated == 0 {
		t.Error("no deletion counted")
	}
}

func TestDecayStrengthArithmetic(t *testing.T) {
	p := NewDefault()
	target := vec("cat", 1.0)
	p.Observe(target, filter.Relevant)
	p.Observe(target, filter.Relevant)
	pv := p.Vectors()[0]
	want := math.Exp(0.5)
	if math.Abs(pv.Strength-want) > 1e-9 {
		t.Errorf("strength after one positive = %v, want %v", pv.Strength, want)
	}
}

func TestMMNDNeverDeletes(t *testing.T) {
	o := DefaultOptions()
	o.DisableDecay = true
	p := New(o)
	target := vec("cat", 1.0, "dog", 1.0, "bird", 1.0)
	p.Observe(target, filter.Relevant)
	near := vec("cat", 1.0, "dog", 1.0, "bird", 1.0, "noise", 0.3)
	for i := 0; i < 10; i++ {
		p.Observe(near, filter.NotRelevant)
	}
	// The vector may only vanish by annihilation (weights driven to zero),
	// never by strength decay.
	if p.Counts().Deleted != 0 {
		t.Errorf("MMND performed a decay deletion: %+v", p.Counts())
	}
	if p.Name() != "MMND" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestThetaZeroSingleVector(t *testing.T) {
	o := DefaultOptions()
	o.Theta = 0
	p := New(o)
	rng := rand.New(rand.NewSource(3))
	terms := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for i := 0; i < 100; i++ {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.3 {
				m[tm] = rng.Float64()
			}
		}
		v := vsm.FromMap(m).Normalized()
		if v.IsZero() {
			continue
		}
		fd := filter.Relevant
		if rng.Float64() < 0.5 {
			fd = filter.NotRelevant
		}
		p.Observe(v, fd)
		if p.ProfileSize() > 1 {
			t.Fatalf("θ=0 profile grew to %d vectors at step %d", p.ProfileSize(), i)
		}
	}
}

func TestThetaOneVectorPerDistinctDocument(t *testing.T) {
	o := DefaultOptions()
	o.Theta = 1.0
	p := New(o)
	docs := []vsm.Vector{
		vec("cat", 1.0, "dog", 0.5),
		vec("stock", 1.0, "bond", 0.5),
		vec("guitar", 1.0, "piano", 0.5),
	}
	for _, d := range docs {
		p.Observe(d, filter.Relevant)
	}
	if p.ProfileSize() != len(docs) {
		t.Errorf("θ=1 profile size = %d, want %d", p.ProfileSize(), len(docs))
	}
	// An identical re-presentation must NOT create a new vector (cos = 1 ≥ θ).
	p.Observe(docs[0], filter.Relevant)
	if p.ProfileSize() != len(docs) {
		t.Errorf("identical document created a new vector at θ=1: %d", p.ProfileSize())
	}
}

func TestMaxVectorsBound(t *testing.T) {
	o := DefaultOptions()
	o.MaxVectors = 2
	o.DisableDecay = true
	p := New(o)
	p.Observe(vec("cat", 1.0), filter.Relevant)
	p.Observe(vec("stock", 1.0), filter.Relevant)
	p.Observe(vec("guitar", 1.0), filter.Relevant) // would create a third
	if p.ProfileSize() > 2 {
		t.Errorf("profile exceeded MaxVectors: %d", p.ProfileSize())
	}
}

func TestReset(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("cat", 1.0), filter.Relevant)
	p.Reset()
	if p.ProfileSize() != 0 || p.Counts() != (OpCounts{}) {
		t.Error("Reset did not clear state")
	}
}

func TestVectorsReturnsCopies(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("cat", 1.0, "dog", 0.5), filter.Relevant)
	vs := p.Vectors()
	vs[0].Vec.Weights[0] = 1e9
	if p.Score(vec("cat", 1.0)) > 1.0001 {
		t.Error("Vectors exposed internal state")
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Theta: -0.1, Eta: 0.2, InitialStrength: 1, MaxTerms: 10},
		{Theta: 1.5, Eta: 0.2, InitialStrength: 1, MaxTerms: 10},
		{Theta: 0.1, Eta: -1, InitialStrength: 1, MaxTerms: 10},
		{Theta: 0.1, Eta: 2, InitialStrength: 1, MaxTerms: 10},
		{Theta: 0.1, Eta: 0.2, DecayC: -1, InitialStrength: 1, MaxTerms: 10},
		{Theta: 0.1, Eta: 0.2, InitialStrength: 0, MaxTerms: 10},
		{Theta: 0.1, Eta: 0.2, InitialStrength: 1, MaxTerms: 0},
		{Theta: 0.1, Eta: 0.2, InitialStrength: 1, MaxTerms: 10, MaxVectors: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func TestNewPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on invalid options")
		}
	}()
	New(Options{Theta: -1})
}

// TestProfileInvariants property-tests MM under random feedback streams:
// profile vectors stay unit-normalized with ≤ MaxTerms terms and positive
// strength, size equals created − merged − deleted − annihilated, and
// scores stay in [0, 1].
func TestProfileInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := DefaultOptions()
		o.Theta = rng.Float64() * 0.5
		o.Eta = rng.Float64()*0.8 + 0.1
		o.MaxTerms = 5 + rng.Intn(20)
		p := New(o)
		terms := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		for step := 0; step < 150; step++ {
			m := map[string]float64{}
			for _, tm := range terms {
				if rng.Float64() < 0.4 {
					m[tm] = rng.Float64() + 0.01
				}
			}
			v := vsm.FromMap(m).Normalized()
			fd := filter.Relevant
			if rng.Float64() < 0.4 {
				fd = filter.NotRelevant
			}
			p.Observe(v, fd)

			for _, pv := range p.Vectors() {
				if pv.Vec.Len() > o.MaxTerms {
					return false
				}
				if n := pv.Vec.Norm(); math.Abs(n-1) > 1e-6 {
					return false
				}
				if pv.Strength <= 0 {
					return false
				}
			}
			c := p.Counts()
			if p.ProfileSize() != c.Created-c.Merged-c.Deleted-c.Annihilated {
				return false
			}
			if s := p.Score(v); s < 0 || s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestThetaOneMatchesNRNScores is the algebraic cross-check of Section 5.4:
// at θ = 1 with positive-only feedback on distinct documents, MM keeps one
// untouched vector per document — so its scores must equal the
// nearest-relevant-neighbour learner's exactly.
func TestThetaOneMatchesNRNScores(t *testing.T) {
	o := DefaultOptions()
	o.Theta = 1.0
	o.DisableDecay = true
	mm := New(o)
	nrn := rocchio.NewNRN()

	rng := rand.New(rand.NewSource(21))
	terms := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	randVec := func() vsm.Vector {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.4 {
				m[tm] = rng.Float64() + 0.01
			}
		}
		return vsm.FromMap(m).Normalized()
	}
	for i := 0; i < 40; i++ {
		v := randVec()
		if v.IsZero() {
			continue
		}
		mm.Observe(v, filter.Relevant)
		nrn.Observe(v, filter.Relevant)
	}
	if mm.ProfileSize() != nrn.ProfileSize() {
		t.Fatalf("sizes differ: MM %d vs NRN %d", mm.ProfileSize(), nrn.ProfileSize())
	}
	for i := 0; i < 30; i++ {
		probe := randVec()
		a, b := mm.Score(probe), nrn.Score(probe)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("probe %d: MM %v vs NRN %v", i, a, b)
		}
	}
}

func TestRegisteredLearners(t *testing.T) {
	for _, name := range []string{"MM", "MMND"} {
		l, err := filter.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if l.Name() != name {
			t.Errorf("learner %s reports name %s", name, l.Name())
		}
	}
}

// TestPackedVectorsAreTheResidentVectors: PackedVectors hands out what the
// profile holds — the same representatives, in ProfileVectors' order,
// without copying a term or a weight — and a step replaces the vector it
// moves rather than writing into it, so what was handed out stays as it was.
func TestPackedVectorsAreTheResidentVectors(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("cat", 1.0, "dog", 1.0), filter.Relevant)
	p.Observe(vec("stock", 1.0, "bond", 1.0), filter.Relevant)
	packed, copies := p.PackedVectors(), p.ProfileVectors()
	if len(packed) != 2 || len(copies) != 2 {
		t.Fatalf("%d packed, %d copies, want 2 and 2", len(packed), len(copies))
	}
	for i := range packed {
		if !reflect.DeepEqual(packed[i].Vector(), copies[i]) {
			t.Errorf("vector %d: packed %v, copy %v", i, packed[i].Vector(), copies[i])
		}
	}
	if again := p.PackedVectors(); &again[0].IDs[0] != &packed[0].IDs[0] || &again[0].Weights[0] != &packed[0].Weights[0] {
		t.Error("PackedVectors copied the resident vector")
	}
	before := packed[0].Vector()
	p.Observe(vec("cat", 1.0, "bird", 1.0), filter.Relevant)
	if !reflect.DeepEqual(packed[0].Vector(), before) {
		t.Error("a feedback step wrote into a vector PackedVectors had handed out")
	}
	if reflect.DeepEqual(p.PackedVectors()[0].Vector(), before) {
		t.Error("the feedback step did not move the vector it was meant to")
	}
}
