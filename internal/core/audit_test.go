package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mmprofile/internal/filter"
	"mmprofile/internal/trace"
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
	p.TagNextObserve(42, 0xab)
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
	p.TagNextObserve(7, 0xdeadbeefdeadbeef)
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

// TestAuditRecordIsEightyBytes: the ring's record, against the 128 bytes of
// the AuditEvent it stands for.
func TestAuditRecordIsEightyBytes(t *testing.T) {
	if sz := unsafe.Sizeof(auditRecord{}); sz > 80 {
		t.Errorf("an audit record is %d bytes, want at most 80", sz)
	}
}

// auditTrailFile holds auditStream's two trails, UnixNano zeroed, as the
// ring of whole AuditEvents that the 80-byte record replaced returned them.
const auditTrailFile = "testdata/audit_trail.json"

// TestAuditTrailMatchesTheEventRing: every field of every event AuditTrail
// rebuilds, UnixNano aside, is what the ring of whole events gave over the
// same stream — Seq before and after the ring wraps, Theta and Eta from
// non-default options, and the trace hex, top bit set or not.
func TestAuditTrailMatchesTheEventRing(t *testing.T) {
	blob, err := os.ReadFile(auditTrailFile)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]AuditEvent
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	got := auditStream()
	ops := map[AuditOp]bool{}
	for _, ev := range got[0] {
		ops[ev.Op] = true
	}
	if len(ops) != len(auditOpNames) {
		t.Fatalf("the scripted opening files %d of the %d operations", len(ops), len(auditOpNames))
	}
	if last := got[1][len(got[1])-1]; last.Seq < 2*defaultAuditCapacity {
		t.Fatalf("the stream ends at seq %d: the ring has not wrapped", last.Seq)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j].UnixNano == 0 {
				t.Fatalf("trail %d event %d carries no wall clock", i, j)
			}
			got[i][j].UnixNano = 0
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d trails, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("trail %d holds %d events, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !reflect.DeepEqual(got[i][j], want[i][j]) {
				t.Errorf("trail %d event %d:\n got %+v\nwant %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func auditTag(p *Profile, doc int64, id uint64) { p.TagNextObserve(doc, trace.TraceID(id)) }

// auditStream judges a fixed stream into a fresh profile (θ 0.3, η 0.5,
// the default 64-event journal) and returns its trail twice: after a
// scripted opening that files each of the six operations once or more,
// and after 200 seeded random judgments over six terms that wrap the ring.
// A third of the random judgments are tagged with a document, half of
// those with a trace id as well, the top bit set on some.
func auditStream() [][]AuditEvent {
	o := DefaultOptions()
	o.Theta, o.Eta = 0.3, 0.5
	p := New(o)
	p.Observe(vsm.Vector{}, filter.Relevant)     // ignore: zero document
	p.Observe(vec("x", 1.0), filter.NotRelevant) // ignore: empty profile
	p.Observe(vec("x", 1.0), filter.Relevant)    // create
	p.Observe(vec("x", 1.0), filter.NotRelevant) // annihilate
	p.Observe(vec("a", 1.0), filter.Relevant)    // create
	auditTag(p, 7, 0xab)
	p.Observe(vec("b", 1.0), filter.Relevant) // create
	auditTag(p, 0, 0xdeadbeefdeadbeef)
	p.Observe(vec("a", 0.7, "b", 0.7), filter.Relevant) // incorporate + merge
	p.Observe(vec("c", 1.0), filter.Relevant)           // create
	auditTag(p, 12, 0)
	p.Observe(vec("c", 0.9, "d", 0.4), filter.NotRelevant) // incorporate + delete
	p.Observe(vec("e", 1.0), filter.NotRelevant)           // ignore: dissimilar
	trails := [][]AuditEvent{p.AuditTrail()}

	terms := []string{"a", "b", "c", "d", "e", "f"}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		var pairs []any
		for _, t := range terms {
			if rng.Intn(3) == 0 {
				pairs = append(pairs, t, 0.1+rng.Float64())
			}
		}
		if rng.Intn(3) == 0 {
			var id uint64
			if rng.Intn(2) == 0 {
				id = rng.Uint64() | uint64(rng.Intn(2))<<63
			}
			auditTag(p, int64(rng.Intn(1000)), id)
		}
		fd := filter.Relevant
		if rng.Intn(3) == 0 {
			fd = filter.NotRelevant
		}
		p.Observe(vec(pairs...), fd)
	}
	return append(trails, p.AuditTrail())
}

// TestAuditJournalHeapBytes: the live heap a journal adds to a profile, as
// the difference between profiles judged alike with the journal on and
// off. A full journal of 64 events holds 64 records and its allocator size
// class (5 120 B in a 5 376 B class; the event ring held 8 192); a journal
// of one event holds one record, so a profile that has judged once — a
// keyword subscriber's create — pays 80 B and not a chunk of ring.
func TestAuditJournalHeapBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is counted as heap")
	}
	const profiles = 2000
	rec := int(unsafe.Sizeof(auditRecord{}))
	for _, tc := range []struct {
		events, budget int
	}{
		{1, rec},
		{defaultAuditCapacity, defaultAuditCapacity*rec + 256},
	} {
		// The least of three readings: what else the process allocates
		// meanwhile (the test runner, the runtime) only adds to one.
		perProfile := journalHeapBytes(profiles, tc.events)
		for i := 0; i < 2; i++ {
			perProfile = min(perProfile, journalHeapBytes(profiles, tc.events))
		}
		t.Logf("%d-event journal: %.1f live bytes a profile", tc.events, perProfile)
		// Half a byte a profile is the noise of a heap reading over 2 000.
		if perProfile > float64(tc.budget)+0.5 {
			t.Errorf("a %d-event journal costs %.1f live bytes a profile, budget %d", tc.events, perProfile, tc.budget)
		}
	}
}

// journalHeapBytes judges n profiles events times each, journal on and
// off, and returns the live heap per profile the journal accounts for.
func journalHeapBytes(n, events int) float64 {
	doc := vec("go", 1.0)
	build := func(capacity int) []*Profile {
		o := DefaultOptions()
		o.AuditCapacity = capacity
		ps := make([]*Profile, n)
		for i := range ps {
			ps[i] = New(o)
			for j := 0; j < events; j++ {
				ps[i].Observe(doc, filter.Relevant)
			}
		}
		return ps
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC() // twice: what vsm's sync.Pools held lives one more cycle
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := liveHeap()
	off := build(-1)
	withoutJournal := liveHeap() - base
	on := build(0)
	withJournal := liveHeap() - base - withoutJournal
	runtime.KeepAlive(off)
	runtime.KeepAlive(on)
	return (float64(withJournal) - float64(withoutJournal)) / float64(n)
}

// TestReplayFilesNothing: Replay changes the profile exactly as Observe
// does — the same export bytes — but journals no event, even on a
// profile whose journal already holds some.
func TestReplayFilesNothing(t *testing.T) {
	observed, replayed := NewDefault(), NewDefault()
	observed.Observe(vec("go", 1.0), filter.Relevant)
	replayed.Observe(vec("go", 1.0), filter.Relevant)
	for _, d := range []struct {
		v  vsm.Vector
		fd filter.Feedback
	}{
		{vec("go", 0.8, "rust", 0.6), filter.Relevant},
		{vec("opera", 1.0), filter.Relevant},
		{vec("opera", 0.9, "jazz", 0.4), filter.NotRelevant},
		{vsm.Vector{}, filter.Relevant},
	} {
		observed.Observe(d.v, d.fd)
		replayed.TagNextObserve(9, 0xab)
		replayed.Replay(d.v, d.fd)
	}
	a, err := observed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("a replayed profile exports other bytes than an observed one")
	}
	if trail := replayed.AuditTrail(); len(trail) != 1 || trail[0].Op != AuditCreate {
		t.Errorf("replay filed events: %+v", trail)
	}
}
