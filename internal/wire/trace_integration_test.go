package wire

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/trace"
)

// startTracedServer runs a fully wired deployment the way mmserver does:
// durable store, always-sample tracer, TCP wire server, HTTP status handler.
func startTracedServer(t *testing.T) (*Client, *pubsub.Broker, *trace.Tracer) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tr := trace.New(trace.Options{SampleRate: 1})
	b := pubsub.New(pubsub.Options{
		Threshold: 0.2,
		QueueSize: 64,
		Retention: 1 << 10,
		Journal:   st,
		Trace:     tr,
	})
	srv := NewServer(b, func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, b, tr
}

// fetchTrace pulls one trace by id through the /tracez HTTP endpoint.
func fetchTrace(t *testing.T, h *httptest.Server, id string) trace.TraceSnapshot {
	t.Helper()
	resp, err := h.Client().Get(h.URL + "/tracez?trace=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/tracez?trace=%s: %d", id, resp.StatusCode)
	}
	var ts trace.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTracedRequestLifecycle is the PR's acceptance test: drive a
// publish→feedback round trip through the wire protocol against a durable
// broker, then locate — via the /tracez and /explainz HTTP endpoints —
// (a) the request traces with their match/deliver/append child spans and
// (b) the audit events recording cosine vs θ and strength before/after.
func TestTracedRequestLifecycle(t *testing.T) {
	c, b, _ := startTracedServer(t)
	h := httptest.NewServer(NewStatusHandler(b, StatusOptions{}))
	defer h.Close()

	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	doc, delivered, pubTrace, err := c.PublishTrace(catPage, "")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if pubTrace == "" {
		t.Fatal("publish response carries no trace id")
	}
	fbTrace, err := c.FeedbackTrace("alice", doc, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if fbTrace == "" {
		t.Fatal("feedback response carries no trace id")
	}

	// (a) The publish trace: decode → publish → match → deliver.
	ts := fetchTrace(t, h, pubTrace)
	names := map[string]bool{}
	for _, s := range ts.Spans {
		names[s.Name] = true
	}
	if ts.Root != "wire.publish" {
		t.Errorf("publish root = %q", ts.Root)
	}
	for _, want := range []string{"wire.decode", "pubsub.publish", "index.match", "pubsub.deliver"} {
		if !names[want] {
			t.Errorf("publish trace missing span %q (have %v)", want, names)
		}
	}

	// The feedback trace: decode → feedback → journal append (wal write +
	// group-commit wait, since the store is durable) → observe → reindex.
	ts = fetchTrace(t, h, fbTrace)
	names = map[string]bool{}
	for _, s := range ts.Spans {
		names[s.Name] = true
	}
	if ts.Root != "wire.feedback" {
		t.Errorf("feedback root = %q", ts.Root)
	}
	for _, want := range []string{"wire.decode", "pubsub.feedback",
		"store.wal_write", "store.commit_wait", "core.observe", "index.reindex"} {
		if !names[want] {
			t.Errorf("feedback trace missing span %q (have %v)", want, names)
		}
	}

	// (b) The audit journal via /explainz: the feedback step must have left
	// an event tied to the document and the feedback trace, explaining the
	// structural decision via cosine vs θ and the strength movement.
	resp, err := h.Client().Get(h.URL + "/explainz?user=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/explainz: %d", resp.StatusCode)
	}
	var out struct {
		Profile pubsub.ProfileInfo `json:"profile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	var ev *core.AuditEvent
	for i := range out.Profile.Audit {
		if out.Profile.Audit[i].Trace == fbTrace {
			ev = &out.Profile.Audit[i]
		}
	}
	if ev == nil {
		t.Fatalf("no audit event carries feedback trace %s: %+v", fbTrace, out.Profile.Audit)
	}
	if ev.Doc != doc {
		t.Errorf("audit doc = %d, want %d", ev.Doc, doc)
	}
	switch ev.Op {
	case core.AuditIncorporate:
		if ev.Cosine < ev.Theta {
			t.Errorf("incorporate with cosine %v < θ %v", ev.Cosine, ev.Theta)
		}
		if ev.StrengthAfter <= ev.StrengthBefore {
			t.Errorf("relevant incorporate did not raise strength: %v → %v",
				ev.StrengthBefore, ev.StrengthAfter)
		}
	case core.AuditCreate:
		if ev.Cosine >= ev.Theta {
			t.Errorf("create with cosine %v ≥ θ %v", ev.Cosine, ev.Theta)
		}
		if ev.StrengthAfter <= 0 {
			t.Errorf("create left strength %v", ev.StrengthAfter)
		}
	default:
		t.Errorf("unexpected audit op %v for a relevant judgment: %+v", ev.Op, ev)
	}

	// The subscriber's vectors must reference the same id space the audit
	// events use, so an operator can join the two views.
	if len(out.Profile.Vectors) == 0 {
		t.Fatal("profile has no vectors")
	}
	if ev.Vector != 0 {
		found := false
		for _, v := range out.Profile.Vectors {
			if v.ID == ev.Vector {
				found = true
			}
		}
		if !found && ev.Op != core.AuditDelete && ev.Op != core.AuditAnnihilate {
			t.Errorf("audit vector id %d not among live vectors %+v", ev.Vector, out.Profile.Vectors)
		}
	}
}

// TestTracePropagationOverWire checks a client-supplied context joins the
// server trace: the response trace id equals the propagated trace id and
// the captured trace records the remote parent span.
func TestTracePropagationOverWire(t *testing.T) {
	c, b, _ := startTracedServer(t)
	h := httptest.NewServer(NewStatusHandler(b, StatusOptions{}))
	defer h.Close()

	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	const ctx = "00000000deadbeef-00000000cafebabe"
	_, _, traceID, err := c.PublishTrace(catPage, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "00000000deadbeef" {
		t.Fatalf("server trace id = %q, want the propagated 00000000deadbeef", traceID)
	}
	ts := fetchTrace(t, h, traceID)
	if ts.RemoteParent != "00000000cafebabe" {
		t.Errorf("remote parent = %q, want 00000000cafebabe", ts.RemoteParent)
	}

	// Malformed context must not fail the request (and yields a fresh id).
	_, _, traceID, err = c.PublishTrace(catPage, "not-a-context")
	if err != nil {
		t.Fatal(err)
	}
	if traceID == "00000000deadbeef" || traceID == "" {
		t.Errorf("malformed context yielded trace %q", traceID)
	}
}
