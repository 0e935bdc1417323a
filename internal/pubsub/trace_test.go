package pubsub

import (
	"io"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/trace"
)

// TestPublishUnsampledAddsNoAllocs is the PR 5 acceptance guard, extended
// in PR 7 with the logging leg: with a tracer configured but this publish
// neither sampled nor slow — and with a structured logger configured but
// debug disabled — the publish hot path must allocate exactly what a bare
// broker does. Measured as a delta so docstore/index allocations inherent
// to publishing don't turn the test into a moving target.
func TestPublishUnsampledAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		// The race runtime drops a random share of sync.Pool puts, so the
		// three brokers read 11 or 12 allocs/op in no fixed order; the plain
		// build's CI step runs this guard.
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	doc := vec("cat", 1.0, "dog", 0.5)
	setup := func(tr *trace.Tracer, lg *obs.Logger) *Broker {
		b := New(Options{Threshold: 0.3, Retention: 1 << 16, Trace: tr, Log: lg})
		if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
			t.Fatal(err)
		}
		// Warm the docstore/index paths so steady-state is measured.
		for i := 0; i < 100; i++ {
			b.PublishVector(doc)
		}
		return b
	}

	base := setup(nil, nil)
	// SampleRate 0 disables head sampling; the 1h threshold keeps any
	// CI-induced slowness from triggering the slow-capture path.
	traced := setup(trace.New(trace.Options{SlowThreshold: time.Hour}), nil)
	// Logger at info: the publish path's debug statements must vanish
	// behind the Enabled guard (obs zero-alloc contract).
	infoLog, err := obs.NewLogger(obs.LogOptions{Format: "json", Output: io.Discard, Level: obs.LevelInfo})
	if err != nil {
		t.Fatal(err)
	}
	logged := setup(trace.New(trace.Options{SlowThreshold: time.Hour}), infoLog)

	const rounds = 200
	baseAllocs := testing.AllocsPerRun(rounds, func() { base.PublishVector(doc) })
	tracedAllocs := testing.AllocsPerRun(rounds, func() { traced.PublishVector(doc) })
	loggedAllocs := testing.AllocsPerRun(rounds, func() { logged.PublishVector(doc) })
	if tracedAllocs > baseAllocs {
		t.Fatalf("unsampled tracing adds allocations: %v allocs/op with tracer vs %v without",
			tracedAllocs, baseAllocs)
	}
	if loggedAllocs > baseAllocs {
		t.Fatalf("disabled-level logging adds allocations: %v allocs/op with logger vs %v without",
			loggedAllocs, baseAllocs)
	}
}

// TestPublishSampledSpanTree checks a head-sampled publish is captured with
// its phase children and the doc/delivery attributes.
// TestPublishSpansVectorise: a sampled page publish times vectorising as
// text.vectorise, a child of pubsub.publish that starts with it, and
// index.match starts no earlier than vectorising ended: the publish span
// starts before the page is tokenised.
func TestPublishSpansVectorise(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := New(Options{Threshold: 0.3, Trace: tr})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	if _, n := b.Publish("<html><body>the cat chased the dog around the cat tree</body></html>"); n != 1 {
		t.Fatalf("deliveries = %d, want 1", n)
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("captured %d traces, want 1", len(snap.Recent))
	}
	spans := map[string]trace.SpanSnapshot{}
	for _, s := range snap.Recent[0].Spans {
		spans[s.Name] = s
	}
	pub, vec, match := spans["pubsub.publish"], spans["text.vectorise"], spans["index.match"]
	if vec.ID == "" || vec.Parent != pub.ID {
		t.Fatalf("text.vectorise %+v is not a child of pubsub.publish %+v", vec, pub)
	}
	if vec.StartUnixNano != pub.StartUnixNano {
		t.Errorf("text.vectorise starts %d ns after pubsub.publish, want 0", vec.StartUnixNano-pub.StartUnixNano)
	}
	if vecEnd := vec.StartUnixNano + int64(vec.DurationUS*1e3); match.StartUnixNano < vecEnd-1 {
		t.Errorf("index.match starts at %d, before text.vectorise ends at %d", match.StartUnixNano, vecEnd)
	}
	if pub.DurationUS < vec.DurationUS+match.DurationUS {
		t.Errorf("pubsub.publish %.1f µs is shorter than its text.vectorise %.1f µs and index.match %.1f µs",
			pub.DurationUS, vec.DurationUS, match.DurationUS)
	}
}

func TestPublishSampledSpanTree(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := New(Options{Threshold: 0.3, Trace: tr})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	id, n := b.PublishVector(vec("cat", 1.0, "dog", 1.0))
	if n != 1 {
		t.Fatalf("deliveries = %d", n)
	}

	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("captured %d traces, want 1", len(snap.Recent))
	}
	ts := snap.Recent[0]
	if ts.Root != "pubsub.publish" {
		t.Fatalf("root = %q", ts.Root)
	}
	names := map[string]bool{}
	for _, s := range ts.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"pubsub.publish", "index.match", "pubsub.deliver"} {
		if !names[want] {
			t.Errorf("missing span %q in %+v", want, ts.Spans)
		}
	}
	var gotDoc, gotDeliveries bool
	for _, s := range ts.Spans {
		if s.Name != "pubsub.publish" {
			continue
		}
		for _, a := range s.Attrs {
			switch a.Key {
			case "doc":
				gotDoc = a.Value() == id
			case "deliveries":
				gotDeliveries = a.Value() == int64(1)
			}
		}
	}
	if !gotDoc || !gotDeliveries {
		t.Errorf("root attrs missing doc/deliveries: %+v", ts.Spans)
	}

	// The sampled trace must surface as an exemplar on the publish
	// histogram, linked by trace id.
	hist := b.Metrics().Snapshot()["mm_pubsub_publish_seconds"].(metrics.HistogramSnapshot)
	found := false
	for _, ex := range hist.Exemplars {
		if ex.Trace == ts.Trace {
			found = true
		}
	}
	if !found {
		t.Errorf("publish histogram exemplars %+v do not link trace %s", hist.Exemplars, ts.Trace)
	}
}

// TestFeedbackSampledSpanTreeAndAuditTag checks a sampled feedback records
// journal/observe/reindex children and stamps the audit journal with the
// trace id.
func TestFeedbackSampledSpanTreeAndAuditTag(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := New(Options{Threshold: 0.3, Trace: tr})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	id, _ := b.PublishVector(vec("cat", 1.0, "dog", 1.0))
	if err := b.Feedback("alice", id, filter.Relevant); err != nil {
		t.Fatal(err)
	}

	var fb *trace.TraceSnapshot
	for _, ts := range tr.Snapshot().Recent {
		if ts.Root == "pubsub.feedback" {
			ts := ts
			fb = &ts
		}
	}
	if fb == nil {
		t.Fatal("no feedback trace captured")
	}
	names := map[string]bool{}
	for _, s := range fb.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"pubsub.feedback", "core.observe", "index.reindex"} {
		if !names[want] {
			t.Errorf("missing span %q in %+v", want, fb.Spans)
		}
	}

	info, err := b.ProfileInfo("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Audit) == 0 {
		t.Fatal("no audit events after feedback")
	}
	last := info.Audit[len(info.Audit)-1]
	if last.Doc != id {
		t.Errorf("audit doc = %d, want %d", last.Doc, id)
	}
	if last.Trace != fb.Trace {
		t.Errorf("audit trace = %q, want %q", last.Trace, fb.Trace)
	}
	if last.Op != core.AuditIncorporate || last.Cosine < last.Theta {
		t.Errorf("expected incorporate with cosine ≥ θ, got %+v", last)
	}
}

// TestPublishSlowCapture checks the always-capture-slow policy: head
// sampling off, a tiny threshold, and a publish must surface as a
// synthetic root-only trace.
func TestPublishSlowCapture(t *testing.T) {
	tr := trace.New(trace.Options{SlowThreshold: time.Nanosecond})
	b := New(Options{Threshold: 0.3, Trace: tr})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	b.PublishVector(vec("cat", 1.0))

	snap := tr.Snapshot()
	if len(snap.Slow) == 0 {
		t.Fatal("no slow trace captured")
	}
	ts := snap.Slow[0]
	if !ts.Synthetic || ts.Root != "pubsub.publish" {
		t.Fatalf("slow capture = %+v", ts)
	}
}

// TestConcurrentPublishesShareParentSpan: publishes running on several
// goroutines under one parent span all nest under it, in one trace.
func TestConcurrentPublishesShareParentSpan(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := New(Options{Threshold: 0.3, Trace: tr})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	const n = 8
	root := tr.RootAt("test.fanin", time.Now(), trace.Remote{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.PublishSpan("<html><body>cat dog</body></html>", root)
		}()
	}
	wg.Wait()
	root.End()

	publishes := 0
	for _, ts := range tr.Snapshot().Recent {
		if ts.Root != "test.fanin" {
			continue
		}
		for _, s := range ts.Spans {
			if s.Name == "pubsub.publish" {
				publishes++
			}
		}
	}
	if publishes != n {
		t.Fatalf("shared trace has %d publish spans, want %d", publishes, n)
	}
}

// TestExplainDoc checks the retained-document explanation endpoint helper.
func TestExplainDoc(t *testing.T) {
	b := New(Options{Threshold: 0.3})
	if _, err := b.Subscribe("alice", trainedMM("cat", "dog")); err != nil {
		t.Fatal(err)
	}
	id, _ := b.PublishVector(vec("cat", 1.0, "dog", 1.0))
	ex, err := b.ExplainDoc("alice", id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Score <= 0 || ex.VectorID == 0 || len(ex.Contributions) == 0 {
		t.Fatalf("explanation = %+v", ex)
	}
	if _, err := b.ExplainDoc("nobody", id, 5); err == nil {
		t.Fatal("unknown user did not error")
	}
	if _, err := b.ExplainDoc("alice", 99999, 5); err == nil {
		t.Fatal("unretained doc did not error")
	}
}
