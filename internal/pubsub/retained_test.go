package pubsub

import (
	"bytes"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/intern"
	"mmprofile/internal/text"
	"mmprofile/internal/trace"
	"mmprofile/internal/vsm"
)

// recordingJournal keeps the vector bytes of every journaled judgment — the
// part of a WAL feedback record that comes from the retained document.
type recordingJournal struct{ feedback [][]byte }

func (j *recordingJournal) AppendSubscribe(string, string, []byte) error { return nil }
func (j *recordingJournal) AppendUnsubscribe(string) error               { return nil }
func (j *recordingJournal) AppendFeedbackTraced(_ string, v vsm.Vector, _ filter.Feedback, _ *trace.Span) error {
	j.feedback = append(j.feedback, vsm.AppendVector(nil, v))
	return nil
}

// TestMissInternedBeforeFeedback: a page whose terms no profile holds is
// retained as strings; a profile imported afterwards interns some of them;
// a third user's judgment of the page then journals and learns exactly what
// the page's DocumentVector would have given it, and the publish itself
// added nothing to the term table.
func TestMissInternedBeforeFeedback(t *testing.T) {
	page := "<p>Quorvex zintaphor blemquist quorvex traviolan mardenbrook yspertine " +
		"calvodune wistrelm ophanquor drezzlewick quorvex zintaphor plomquastic " +
		"velmorrant sturquine ambrevault</p>"
	terms := text.NewPipeline().Terms(page)
	stats := vsm.NewStats()
	stats.Add(terms)
	want := vsm.DocumentVector(terms, vsm.Bel{Stats: stats})
	if want.Len() < 6 {
		t.Fatalf("the page vectorises to %d terms; the test needs several", want.Len())
	}
	for _, term := range want.Terms {
		if _, ok := intern.Terms.Lookup(term); ok {
			t.Fatalf("%q is already interned: the page would not be all misses", term)
		}
	}

	j := &recordingJournal{}
	b := New(Options{Threshold: 0.3, Journal: j})
	if _, err := b.Subscribe("bystander", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("judge", core.NewDefault()); err != nil {
		t.Fatal(err)
	}
	before := intern.Terms.Len()
	doc, _ := b.Publish(page)
	if got := intern.Terms.Len(); got != before {
		t.Fatalf("publishing grew the term table from %d to %d", before, got)
	}

	half := map[string]float64{}
	for i := 0; i < want.Len(); i += 2 {
		half[want.Terms[i]] = 1
	}
	importer := core.NewDefault()
	importer.Observe(vsm.FromMap(half).Normalized(), filter.Relevant)
	state, err := importer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	importProfile(t, b, "importer", state)
	if _, ok := intern.Terms.Lookup(want.Terms[0]); !ok {
		t.Fatalf("the import did not intern %q", want.Terms[0])
	}

	if err := b.Feedback("judge", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if len(j.feedback) != 1 || !bytes.Equal(j.feedback[0], vsm.AppendVector(nil, want)) {
		t.Errorf("journaled %x, want the page's DocumentVector %x", j.feedback, vsm.AppendVector(nil, want))
	}
	ref := core.NewDefault()
	ref.Observe(want, filter.Relevant)
	wantState, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b.ExportProfile("judge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Data, wantState) {
		t.Error("the judge's Export differs from a profile fed the page's DocumentVector")
	}
}

// TestPingPipelineAllocatesNothing: the health heartbeat reads the
// docstore's slot of document 0 and must not build its vector to do so.
func TestPingPipelineAllocatesNothing(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	if doc, _ := b.PublishVector(vec("cat", 1.0, "dog", 0.5, "unheld", 0.25)); doc != 0 {
		t.Fatalf("first document is %d", doc)
	}
	if allocs := testing.AllocsPerRun(100, b.PingPipeline); allocs != 0 {
		t.Errorf("PingPipeline allocates %v times per call with document 0 retained", allocs)
	}
}
