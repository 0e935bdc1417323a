package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Slow(time.Hour) {
		t.Fatal("nil tracer reports capability")
	}
	if sp := tr.RootAt("x", time.Now(), Remote{}); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if id := tr.CaptureSlow("x", time.Now(), time.Now().Add(time.Hour)); id != 0 {
		t.Fatal("nil tracer captured a slow trace")
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 0 || len(snap.Slow) != 0 {
		t.Fatal("nil tracer snapshot non-empty")
	}

	var sp *Span
	sp.SetInt("k", 1)
	sp.SetString("k", "v")
	sp.SetFloat("k", 1.5)
	sp.SetBool("k", true)
	sp.End()
	sp.EndAt(time.Now())
	if c := sp.Child("c"); c != nil {
		t.Fatal("nil span produced a child")
	}
	if c := sp.ChildAt("c", time.Now()); c != nil {
		t.Fatal("nil span produced a child")
	}
	if sp.Trace() != 0 || sp.ID() != 0 || sp.Context() != "" || sp.TraceString() != "" {
		t.Fatal("nil span has identity")
	}
}

func TestHeadSamplingRate(t *testing.T) {
	tr := New(Options{SampleRate: 0.25, Capacity: 4096})
	const roots = 1000
	captured := 0
	for i := 0; i < roots; i++ {
		if sp := tr.Root("r", Remote{}); sp != nil {
			captured++
			sp.End()
		}
	}
	if captured != roots/4 {
		t.Fatalf("1-in-4 sampling captured %d of %d", captured, roots)
	}
	if got := tr.Snapshot().Sampled; got != uint64(captured) {
		t.Fatalf("sampled counter %d != %d", got, captured)
	}
}

func TestSampleRateZeroCapturesNothing(t *testing.T) {
	tr := New(Options{SampleRate: 0})
	for i := 0; i < 100; i++ {
		if sp := tr.Root("r", Remote{}); sp != nil {
			t.Fatal("rate-0 tracer sampled a root")
		}
	}
}

func TestRemoteContextForcesCapture(t *testing.T) {
	tr := New(Options{SampleRate: 0}) // head sampling off
	remote := Remote{Trace: 0xabc, Span: 0xdef}
	sp := tr.Root("joined", remote)
	if sp == nil {
		t.Fatal("sampled remote context did not force capture")
	}
	if sp.Trace() != remote.Trace {
		t.Fatalf("joined trace id %x != remote %x", sp.Trace(), remote.Trace)
	}
	sp.End()
	snap, ok := tr.Find(remote.Trace.String())
	if !ok {
		t.Fatal("joined trace not in ring")
	}
	if snap.RemoteParent != remote.Span.String() {
		t.Fatalf("remote parent %q != %q", snap.RemoteParent, remote.Span.String())
	}
	if snap.Spans[0].Parent != remote.Span.String() {
		t.Fatalf("root parent %q not the remote span", snap.Spans[0].Parent)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	t0 := time.Now()
	root := tr.RootAt("publish", t0, Remote{})
	root.SetInt("doc", 42)
	child := root.ChildAt("match", t0)
	child.SetFloat("score", 0.75)
	child.SetString("kind", "indexed")
	child.SetBool("hit", true)
	child.EndAt(t0.Add(time.Millisecond))
	root.EndAt(t0.Add(2 * time.Millisecond))

	snap, ok := tr.Find(root.TraceString())
	if !ok {
		t.Fatal("trace not found")
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(snap.Spans))
	}
	rs, cs := snap.Spans[0], snap.Spans[1]
	if rs.Name != "publish" || cs.Name != "match" {
		t.Fatalf("span names %q %q", rs.Name, cs.Name)
	}
	if cs.Parent != rs.ID {
		t.Fatalf("child parent %q != root id %q", cs.Parent, rs.ID)
	}
	if rs.Parent != "" {
		t.Fatalf("root has parent %q", rs.Parent)
	}
	if cs.DurationUS < 999 || cs.DurationUS > 1001 {
		t.Fatalf("child duration %v µs, want ~1000", cs.DurationUS)
	}
	if snap.DurationMS < 1.99 || snap.DurationMS > 2.01 {
		t.Fatalf("trace duration %v ms, want ~2", snap.DurationMS)
	}
	if got := cs.Attrs[0].Value(); got != 0.75 {
		t.Fatalf("score attr %v", got)
	}
	if got := cs.Attrs[2].Value(); got != true {
		t.Fatalf("bool attr %v", got)
	}
	// The whole snapshot must be JSON-marshalable with typed attr values.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
}

func TestSlowCaptureSynthetic(t *testing.T) {
	tr := New(Options{SampleRate: 0, SlowThreshold: 10 * time.Millisecond})
	t0 := time.Now()

	// Fast request: nothing captured.
	if id := tr.CaptureSlow("publish", t0, t0.Add(time.Millisecond)); id != 0 {
		t.Fatal("fast request captured")
	}
	// Slow request: synthetic root-only trace in both rings.
	id := tr.CaptureSlow("publish", t0, t0.Add(50*time.Millisecond), Int("doc", 7))
	if id == 0 {
		t.Fatal("slow request not captured")
	}
	snap := tr.Snapshot()
	if len(snap.Slow) != 1 || len(snap.Recent) != 1 {
		t.Fatalf("rings recent=%d slow=%d, want 1/1", len(snap.Recent), len(snap.Slow))
	}
	got := snap.Slow[0]
	if !got.Synthetic || !got.Slow {
		t.Fatalf("slow capture flags: %+v", got)
	}
	if got.Trace != id.String() {
		t.Fatalf("trace id %q != returned %q", got.Trace, id.String())
	}
	if len(got.Spans) != 1 || got.Spans[0].Attrs[0].Value() != int64(7) {
		t.Fatalf("synthetic span: %+v", got.Spans)
	}
	if snap.SlowCaptured != 1 {
		t.Fatalf("slow_captured %d", snap.SlowCaptured)
	}
}

func TestSampledSlowTraceEntersSlowRing(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: 10 * time.Millisecond})
	t0 := time.Now()
	sp := tr.RootAt("r", t0, Remote{})
	sp.EndAt(t0.Add(20 * time.Millisecond))
	snap := tr.Snapshot()
	if len(snap.Slow) != 1 || !snap.Slow[0].Slow || snap.Slow[0].Synthetic {
		t.Fatalf("sampled slow trace: %+v", snap.Slow)
	}
}

func TestRingOverwritesOldestNewestFirst(t *testing.T) {
	tr := New(Options{SampleRate: 1, Capacity: 3})
	for i := 0; i < 5; i++ {
		sp := tr.Root("r", Remote{})
		sp.SetInt("i", int64(i))
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap.Recent))
	}
	for i, want := range []int64{4, 3, 2} {
		if got := snap.Recent[i].Spans[0].Attrs[0].Value(); got != want {
			t.Fatalf("slot %d holds trace %v, want %v", i, got, want)
		}
	}
}

func TestConcurrentChildrenRaceFree(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	root := tr.Root("batch", Remote{})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := root.Child(fmt.Sprintf("doc-%d-%d", w, i))
				c.SetInt("w", int64(w))
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	snap, ok := tr.Find(root.TraceString())
	if !ok {
		t.Fatal("batch trace missing")
	}
	if want := 1 + workers*perWorker; len(snap.Spans) != want {
		t.Fatalf("%d spans, want %d", len(snap.Spans), want)
	}
	ids := make(map[string]bool, len(snap.Spans))
	for _, sp := range snap.Spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %s", sp.ID)
		}
		ids[sp.ID] = true
	}
}

// TestUnsampledPathZeroAllocs pins the tentpole's cost contract: when head
// sampling skips a root, starting it performs no allocation at all.
func TestUnsampledPathZeroAllocs(t *testing.T) {
	tr := New(Options{SampleRate: 0, SlowThreshold: time.Hour})
	t0 := time.Now()
	t1 := t0.Add(time.Microsecond)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.RootAt("publish", t0, Remote{})
		c := sp.ChildAt("match", t0)
		c.EndAt(t1)
		sp.SetInt("doc", 1)
		sp.EndAt(t1)
		if tr.Slow(t1.Sub(t0)) {
			tr.CaptureSlow("publish", t0, t1)
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates %v per op", allocs)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	cases := []Remote{
		{Trace: 1, Span: 1},
		{Trace: 0xdeadbeefcafe0123, Span: 0x00000000000000ff},
		{Trace: ^TraceID(0), Span: ^SpanID(0)},
	}
	for _, want := range cases {
		s := FormatContext(want.Trace, want.Span)
		if got := ParseContext(s); got != want {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, want)
		}
	}
}

func TestParseContextMalformed(t *testing.T) {
	bad := []string{
		"",
		"not-a-context",
		"0123456789abcdef",                     // missing span half
		"0123456789abcdef-0123456789abcde",     // short span
		"0123456789abcdef_0123456789abcdef",    // wrong separator
		"0123456789ABCDEF-0123456789abcdef",    // uppercase rejected
		"0000000000000000-0123456789abcdef",    // zero trace id
		"0123456789abcdef-0000000000000000",    // zero span id
		"0123456789abcdeg-0123456789abcdef",    // non-hex digit
		"0123456789abcdef-0123456789abcdef0",   // too long
		"\x000123456789abcde-0123456789abcdef", // control bytes
	}
	for _, s := range bad {
		if got := ParseContext(s); got != (Remote{}) {
			t.Fatalf("ParseContext(%q) = %+v, want zero Remote", s, got)
		}
	}
}

func TestFormatContextZeroIsEmpty(t *testing.T) {
	if FormatContext(0, 5) != "" || FormatContext(5, 0) != "" {
		t.Fatal("zero ids must format as empty")
	}
}

func TestIDStrings(t *testing.T) {
	if got := TraceID(0xabc).String(); got != "0000000000000abc" {
		t.Fatalf("TraceID string %q", got)
	}
	if got := SpanID(0).String(); got != "" {
		t.Fatalf("zero SpanID string %q", got)
	}
}

func BenchmarkRootUnsampled(b *testing.B) {
	tr := New(Options{SampleRate: 0, SlowThreshold: time.Hour})
	t0 := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.RootAt("publish", t0, Remote{})
		sp.EndAt(t0)
	}
}

func BenchmarkRootSampled(b *testing.B) {
	tr := New(Options{SampleRate: 1, Capacity: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root("publish", Remote{})
		c := sp.Child("match")
		c.End()
		sp.End()
	}
}
