package core

import (
	"encoding/json"
	"strings"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

func TestAuditCreateAndIncorporate(t *testing.T) {
	p := NewDefault()
	a := vec("go", 1.0)
	p.Observe(a, filter.Relevant)
	p.Observe(vec("go", 1.0, "compiler", 0.2), filter.Relevant)

	trail := p.AuditTrail()
	if len(trail) != 2 {
		t.Fatalf("want 2 events, got %d: %+v", len(trail), trail)
	}

	create := trail[0]
	if create.Op != AuditCreate || create.Vector != 1 {
		t.Fatalf("create event = %+v", create)
	}
	if create.StrengthBefore != 0 || create.StrengthAfter != p.Options().InitialStrength {
		t.Errorf("create strengths = %v → %v", create.StrengthBefore, create.StrengthAfter)
	}
	if create.Theta != p.Options().Theta || create.Eta != p.Options().Eta {
		t.Errorf("create θ/η = %v/%v", create.Theta, create.Eta)
	}
	if create.Step != 1 || create.Seq != 0 || create.UnixNano == 0 {
		t.Errorf("create step/seq/time = %d/%d/%d", create.Step, create.Seq, create.UnixNano)
	}

	inc := trail[1]
	if inc.Op != AuditIncorporate || inc.Vector != 1 {
		t.Fatalf("incorporate event = %+v", inc)
	}
	if inc.Cosine < inc.Theta {
		t.Errorf("incorporate with cosine %v < θ %v", inc.Cosine, inc.Theta)
	}
	if inc.StrengthBefore != p.Options().InitialStrength || inc.StrengthAfter <= inc.StrengthBefore {
		t.Errorf("incorporate strengths = %v → %v (positive feedback must grow strength)",
			inc.StrengthBefore, inc.StrengthAfter)
	}
	if inc.VectorsAfter != 1 {
		t.Errorf("VectorsAfter = %d", inc.VectorsAfter)
	}
}

func TestAuditIgnoreAndDissimilarCreate(t *testing.T) {
	p := NewDefault()
	p.Observe(vsm.Vector{}, filter.Relevant) // zero doc
	p.Observe(vec("go", 1.0), filter.NotRelevant)
	p.Observe(vec("go", 1.0), filter.Relevant)       // create id 1
	p.Observe(vec("opera", 1.0), filter.NotRelevant) // dissimilar, non-relevant
	p.Observe(vec("opera", 1.0), filter.Relevant)    // dissimilar, relevant → create id 2

	trail := p.AuditTrail()
	ops := make([]AuditOp, len(trail))
	for i, ev := range trail {
		ops[i] = ev.Op
	}
	want := []AuditOp{AuditIgnore, AuditIgnore, AuditCreate, AuditIgnore, AuditCreate}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
	// The dissimilar ignore names the nearest vector and its sub-θ cosine.
	if trail[3].Vector != 1 || trail[3].Cosine >= trail[3].Theta {
		t.Errorf("dissimilar ignore = %+v", trail[3])
	}
	// The second create keeps the cosine that failed the θ test.
	if trail[4].Vector != 2 || trail[4].Cosine >= trail[4].Theta {
		t.Errorf("second create = %+v", trail[4])
	}
}

func TestAuditMergeRecordsBothIDs(t *testing.T) {
	o := DefaultOptions()
	o.Theta = 0.6
	p := New(o)
	p.Observe(vec("a", 1.0), filter.Relevant) // id 1
	p.Observe(vec("b", 1.0), filter.Relevant) // id 2 (orthogonal)
	// Pull vector 2 toward vector 1 until the pair passes θ and merges.
	for i := 0; i < 20 && p.Counts().Merged == 0; i++ {
		p.Observe(vec("a", 0.7, "b", 0.7), filter.Relevant)
	}
	if p.Counts().Merged != 1 {
		t.Fatalf("no merge after pulling: %v", p)
	}
	var merge *AuditEvent
	for _, ev := range p.AuditTrail() {
		if ev.Op == AuditMerge {
			ev := ev
			merge = &ev
		}
	}
	if merge == nil {
		t.Fatal("no merge event in trail")
	}
	if merge.Vector == 0 || merge.Merged == 0 || merge.Vector == merge.Merged {
		t.Fatalf("merge ids = %d/%d", merge.Vector, merge.Merged)
	}
	if merge.Cosine < 0.6 {
		t.Errorf("merge cosine %v below θ", merge.Cosine)
	}
	if merge.StrengthAfter <= merge.StrengthBefore {
		t.Errorf("merge strengths = %v → %v (must sum)", merge.StrengthBefore, merge.StrengthAfter)
	}
	if merge.VectorsAfter != 1 {
		t.Errorf("VectorsAfter = %d", merge.VectorsAfter)
	}
}

func TestAuditDeleteAndAnnihilate(t *testing.T) {
	// Deletion: negative feedback decays strength below the threshold. The
	// delete rides the same step as an incorporate event, in that order.
	o := DefaultOptions()
	o.Theta = 0.0 // always incorporate
	o.UnweightedDecay = true
	p := New(o)
	p.Observe(vec("x", 1.0), filter.Relevant)
	p.Observe(vec("x", 0.9, "y", 0.4), filter.NotRelevant)
	trail := p.AuditTrail()
	if len(trail) != 3 || trail[1].Op != AuditIncorporate || trail[2].Op != AuditDelete {
		t.Fatalf("delete trail = %+v", trail)
	}
	del := trail[2]
	if del.StrengthBefore >= o.DeleteThreshold || del.StrengthAfter != 0 {
		t.Errorf("delete strengths = %v → %v", del.StrengthBefore, del.StrengthAfter)
	}
	if del.Step != trail[1].Step {
		t.Errorf("delete not on incorporate's step: %+v", trail)
	}

	// Annihilation: with η = 0.5 and decay off, negative feedback on an
	// identical vector cancels it exactly.
	o2 := DefaultOptions()
	o2.Theta = 0.0
	o2.Eta = 0.5
	o2.DisableDecay = true
	p2 := New(o2)
	p2.Observe(vec("x", 1.0), filter.Relevant)
	p2.Observe(vec("x", 1.0), filter.NotRelevant)
	if p2.Counts().Annihilated != 1 {
		t.Fatalf("no annihilation: %v", p2)
	}
	var ann *AuditEvent
	for _, ev := range p2.AuditTrail() {
		if ev.Op == AuditAnnihilate {
			ev := ev
			ann = &ev
		}
	}
	if ann == nil {
		t.Fatalf("annihilation happened but no event: %+v", p2.AuditTrail())
	}
	if ann.StrengthBefore == 0 || ann.StrengthAfter != 0 || ann.VectorsAfter != 0 {
		t.Errorf("annihilate event = %+v", *ann)
	}
}

func TestAuditTagNextObserve(t *testing.T) {
	p := NewDefault()
	p.TagNextObserve(42, "00000000000000ab")
	p.Observe(vec("go", 1.0), filter.Relevant)
	p.Observe(vec("go", 1.0), filter.Relevant) // untagged

	trail := p.AuditTrail()
	if len(trail) != 2 {
		t.Fatalf("want 2 events, got %d", len(trail))
	}
	if trail[0].Doc != 42 || trail[0].Trace != "00000000000000ab" {
		t.Errorf("tagged event = %+v", trail[0])
	}
	if trail[1].Doc != 0 || trail[1].Trace != "" {
		t.Errorf("tag leaked onto next step: %+v", trail[1])
	}
}

func TestAuditRingBoundAndSeq(t *testing.T) {
	o := DefaultOptions()
	o.AuditCapacity = 4
	p := New(o)
	for i := 0; i < 10; i++ {
		p.Observe(vec("go", 1.0), filter.Relevant)
	}
	trail := p.AuditTrail()
	if len(trail) != 4 {
		t.Fatalf("ring len = %d, want 4", len(trail))
	}
	// Oldest-first with contiguous Seq ending at the latest event.
	for i := 1; i < len(trail); i++ {
		if trail[i].Seq != trail[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq: %+v", trail)
		}
	}
	if last := trail[len(trail)-1]; last.Seq != 9 || last.Step != 10 {
		t.Errorf("last event seq/step = %d/%d, want 9/10", last.Seq, last.Step)
	}
}

func TestAuditDisabled(t *testing.T) {
	o := DefaultOptions()
	o.AuditCapacity = -1
	p := New(o)
	for i := 0; i < 5; i++ {
		p.Observe(vec("go", 1.0), filter.Relevant)
	}
	if trail := p.AuditTrail(); len(trail) != 0 {
		t.Fatalf("disabled journal recorded %d events", len(trail))
	}
}

func TestAuditResetAndCodecRestart(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("go", 1.0), filter.Relevant)
	p.Observe(vec("rust", 1.0), filter.Relevant)
	p.Reset()
	if len(p.AuditTrail()) != 0 {
		t.Fatal("Reset kept audit events")
	}
	p.Observe(vec("go", 1.0), filter.Relevant)
	if ev := p.AuditTrail()[0]; ev.Vector != 1 || ev.Seq != 0 {
		t.Errorf("post-Reset ids/seq not restarted: %+v", ev)
	}

	// A restored snapshot gets fresh sequential ids and an empty journal,
	// and new vectors continue past the restored ones.
	p2 := NewDefault()
	p2.Observe(vec("a", 1.0), filter.Relevant)
	p2.Observe(vec("b", 1.0), filter.Relevant)
	blob, err := p2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDefault()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if len(restored.AuditTrail()) != 0 {
		t.Fatal("restored profile inherited audit events")
	}
	ids := make(map[uint64]bool)
	for _, pv := range restored.Vectors() {
		if pv.ID == 0 {
			t.Fatalf("restored vector without id: %+v", pv)
		}
		ids[pv.ID] = true
	}
	if len(ids) != 2 {
		t.Fatalf("restored ids not distinct: %v", ids)
	}
	restored.Observe(vec("c", 1.0), filter.Relevant)
	for _, pv := range restored.Vectors() {
		if pv.Vec.Weight("c") > 0 && ids[pv.ID] {
			t.Fatalf("new vector reused a restored id: %+v", pv)
		}
	}
}

func TestAuditEventJSON(t *testing.T) {
	p := NewDefault()
	p.TagNextObserve(7, "deadbeefdeadbeef")
	p.Observe(vec("go", 1.0), filter.Relevant)
	blob, err := json.Marshal(p.AuditTrail())
	if err != nil {
		t.Fatal(err)
	}
	s := string(blob)
	for _, want := range []string{`"op":"create"`, `"doc":7`, `"trace":"deadbeefdeadbeef"`, `"vector":1`, `"theta":0.15`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s: %s", want, s)
		}
	}
	if strings.Contains(s, `"merged"`) {
		t.Errorf("omitempty Merged serialized on create: %s", s)
	}
}

func TestExplainVectorID(t *testing.T) {
	p := NewDefault()
	p.Observe(vec("go", 1.0), filter.Relevant)
	p.Observe(vec("opera", 1.0), filter.Relevant)
	ex := p.Explain(vec("opera", 1.0), 5)
	if ex.VectorID != 2 {
		t.Fatalf("Explain.VectorID = %d, want 2 (ex=%+v)", ex.VectorID, ex)
	}
	if got := p.Explain(vsm.Vector{}, 5); got.VectorID != 0 {
		t.Errorf("zero doc VectorID = %d", got.VectorID)
	}
}

func TestAuditOpString(t *testing.T) {
	if AuditMerge.String() != "merge" || AuditOp(200).String() == "" {
		t.Fatal("AuditOp.String")
	}
}
