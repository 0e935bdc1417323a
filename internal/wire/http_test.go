package wire

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/trace"
)

func TestStatusHandler(t *testing.T) {
	b := pubsub.New(pubsub.Options{Threshold: 0.2})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	b.Publish("<html><body>cats cats cats</body></html>")
	h := NewStatusHandler(b, StatusOptions{})

	// /healthz
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	// /statsz
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	if rec.Code != 200 {
		t.Fatalf("statsz: %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["subscribers"].(float64) != 1 || stats["published"].(float64) != 1 {
		t.Errorf("statsz = %v", stats)
	}
	if _, ok := stats["index_vectors"]; !ok {
		t.Error("index stats missing")
	}

	// dashboard
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "mmserver") {
		t.Errorf("dashboard: %d", rec.Code)
	}

	// unknown path
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

// TestStatusHandlerMetrics exercises the full exposition surface against
// a broker wired the way mmserver wires it: one registry shared by the
// broker, the index, and the profile store. /metrics must carry at least
// one counter, one gauge, and one histogram from each instrument family.
func TestStatusHandlerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := pubsub.New(pubsub.Options{Threshold: 0.2, Metrics: reg, Journal: st})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	doc, _ := b.Publish("<html><body>cats cats cats</body></html>")
	if err := b.Feedback("alice", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	h := NewStatusHandler(b, StatusOptions{})

	// /metrics: Prometheus text with every family present.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		// pubsub: counter, gauge, histogram.
		"# TYPE mm_pubsub_published_total counter",
		"mm_pubsub_published_total 1",
		"# TYPE mm_pubsub_subscribers gauge",
		"# TYPE mm_pubsub_publish_seconds histogram",
		"mm_pubsub_publish_seconds_count 1",
		// index: counter, gauge, histogram.
		"# TYPE mm_index_compactions_total counter",
		"# TYPE mm_index_live_vectors gauge",
		"# TYPE mm_index_compaction_seconds histogram",
		// store: counter, gauge, histogram (journaled subscribe + feedback).
		"# TYPE mm_store_appends_total counter",
		"mm_store_appends_total 2",
		"# TYPE mm_store_checkpoint_bytes gauge",
		"# TYPE mm_store_append_seconds histogram",
		// adaptation telemetry: counter, gauge, histogram.
		"# TYPE mm_vectors_created_total counter",
		"# TYPE mm_profile_vectors gauge",
		"# TYPE mm_vector_strength histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /statsz remains a superset of the legacy keys, plus the registry
	// snapshot under "metrics".
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"published", "deliveries", "dropped", "feedbacks",
		"subscribers", "index_users", "index_vectors", "index_distinct", "index_terms", "index_postings"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("statsz lost legacy key %q", key)
		}
	}
	if _, ok := stats["layout"]; ok {
		t.Error("statsz reports a shard layout; every layer is one structure")
	}
	inner, ok := stats["metrics"].(map[string]any)
	if !ok {
		t.Fatal("statsz has no metrics object")
	}
	if inner["mm_pubsub_published_total"].(float64) != 1 {
		t.Errorf("statsz metrics = %v", inner["mm_pubsub_published_total"])
	}

	// /debug/pprof/: index page is served.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index: %d", rec.Code)
	}
}

// TestHTTPContentTypes audits every introspection endpoint's Content-Type:
// machine-readable endpoints must declare JSON, text endpoints must say so,
// and nothing may fall back to Go's content sniffing — error answers
// included. Headers are read from rec.Result(), the snapshot taken at
// WriteHeader: rec.Header() would also show a Content-Type set after the
// status line went out, which no client ever sees.
func TestHTTPContentTypes(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := pubsub.New(pubsub.Options{Threshold: 0.2, Trace: tr})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	b.Publish("<html><body>cats cats cats</body></html>")
	h := NewStatusHandler(b, StatusOptions{})

	cases := []struct {
		path string
		code int
		want string // Content-Type prefix
	}{
		{"/healthz", 200, "text/plain; charset=utf-8"},
		{"/readyz", 200, "application/json"},
		{"/statsz", 200, "application/json"},
		{"/metrics", 200, "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics?format=json", 200, "application/json"},
		{"/topz", 200, "application/json"},
		{"/topz?format=table", 200, "text/plain; charset=utf-8"},
		{"/tsz", 200, "application/json"},
		{"/tracez", 200, "application/json"},
		{"/explainz?user=alice", 200, "application/json"},
		{"/", 200, "text/html; charset=utf-8"},
		{"/topz?dim=nope", 404, "application/json"},
		{"/explainz", 400, "application/json"},
		{"/explainz?user=nobody", 404, "application/json"},
		{"/tracez?trace=00", 404, "application/json"},
		{"/debugz/dump", 405, "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, rec.Code, tc.code)
			continue
		}
		if ct := rec.Result().Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.want) {
			t.Errorf("%s: Content-Type = %q, want prefix %q", tc.path, ct, tc.want)
		}
	}
}

// TestReadyzEndpoint checks the readiness endpoint: the unconfigured
// handler reports a bare ready, a wired snapshot func surfaces per-component
// state, and the status code flips with the rollup (200 while serving,
// 503 while refusing).
func TestReadyzEndpoint(t *testing.T) {
	b := pubsub.New(pubsub.Options{Threshold: 0.2})

	// No snapshot func: /readyz answers 200 ready so the handler works
	// unconfigured (tests, embedders).
	h := NewStatusHandler(b, StatusOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("bare readyz: %d", rec.Code)
	}
	var snap obs.HealthSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != "ready" {
		t.Errorf("bare readyz status = %q", snap.Status)
	}

	// Wired snapshot: components appear, and the rollup drives the code.
	health := obs.HealthSnapshot{Status: "not_ready", Components: map[string]obs.ComponentHealth{
		"server":    {Status: "not_ready", Reason: "starting"},
		"store_wal": {Status: "ready"},
	}}
	h = NewStatusHandler(b, StatusOptions{Health: func() obs.HealthSnapshot { return health }})

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 503 {
		t.Fatalf("starting readyz: %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Status != "not_ready" || snap.Components["server"].Reason != "starting" {
		t.Errorf("starting snapshot = %+v", snap)
	}

	health.Status, health.Components["server"] = "ready", obs.ComponentHealth{Status: "ready"}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 {
		t.Fatalf("ready readyz: %d", rec.Code)
	}

	// Degraded still serves: load balancers keep routing.
	health.Status, health.Components["publish_path"] = "degraded", obs.ComponentHealth{Status: "degraded", Reason: "heartbeat stale"}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || snap.Status != "degraded" {
		t.Errorf("degraded readyz: %d %q, want 200 degraded", rec.Code, snap.Status)
	}

	// Draining overrides everything and refuses.
	health.Status, health.Draining = "draining", true
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 503 || snap.Status != "draining" || !snap.Draining {
		t.Errorf("draining readyz: %d %+v", rec.Code, snap)
	}
}

// TestDebugzDumpEndpoint checks the on-demand flight-recorder trigger:
// method discipline, the explanatory 503 without a recorder, and a real
// dump landing on disk as valid JSON.
func TestDebugzDumpEndpoint(t *testing.T) {
	b := pubsub.New(pubsub.Options{Threshold: 0.2})

	// GET is rejected: the root dashboard links every GET endpoint, and
	// crawling it must not write bundles.
	h := NewStatusHandler(b, StatusOptions{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debugz/dump", nil))
	if rec.Code != 405 || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET dump: %d Allow=%q, want 405 POST", rec.Code, rec.Header().Get("Allow"))
	}

	// No recorder: explanatory 503, not a panic.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debugz/dump", nil))
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "no flight recorder") {
		t.Errorf("recorder-less dump: %d %q", rec.Code, rec.Body.String())
	}

	// Wired recorder: 200 with the bundle path, and the file is real JSON.
	dir := t.TempDir()
	recd := obs.NewRecorder(dir, obs.NewEventRing(8), obs.BundleSources{Metrics: b.Metrics()})
	h = NewStatusHandler(b, StatusOptions{Recorder: recd})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debugz/dump", nil))
	if rec.Code != 200 {
		t.Fatalf("dump: %d %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Path)
	if err != nil {
		t.Fatalf("bundle not on disk: %v", err)
	}
	var bundle map[string]any
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if bundle["reason"] != "endpoint" {
		t.Errorf("bundle reason = %v, want endpoint", bundle["reason"])
	}
}

// TestTracezEndpoint checks /tracez exposition: full snapshot, single-trace
// lookup, 404 on unknown ids, and the disabled report without a tracer.
func TestTracezEndpoint(t *testing.T) {
	tr := trace.New(trace.Options{SampleRate: 1})
	b := pubsub.New(pubsub.Options{Threshold: 0.2, Trace: tr})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	b.Publish("<html><body>cats cats cats</body></html>")
	h := NewStatusHandler(b, StatusOptions{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	var out struct {
		Enabled  bool           `json:"enabled"`
		Snapshot trace.Snapshot `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Enabled || len(out.Snapshot.Recent) == 0 {
		t.Fatalf("tracez = enabled %v, %d recent traces", out.Enabled, len(out.Snapshot.Recent))
	}

	// Single-trace lookup by the id just captured.
	id := out.Snapshot.Recent[0].Trace
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace="+id, nil))
	if rec.Code != 200 {
		t.Fatalf("tracez?trace=%s: %d", id, rec.Code)
	}
	var ts trace.TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Trace != id || len(ts.Spans) == 0 {
		t.Errorf("trace lookup = %+v", ts)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Errorf("unknown trace id: %d, want 404", rec.Code)
	}

	// A broker without a tracer reports disabled rather than erroring.
	h2 := NewStatusHandler(pubsub.New(pubsub.Options{Threshold: 0.2}), StatusOptions{})
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"enabled":false`) {
		t.Errorf("tracer-less tracez: %d %q", rec.Code, rec.Body.String())
	}
}

// TestExplainzEndpoint checks the adaptation-audit endpoint: the profile
// report with vectors and audit events, the optional document join, and
// the error statuses.
func TestExplainzEndpoint(t *testing.T) {
	b := pubsub.New(pubsub.Options{Threshold: 0.2, Retention: 1 << 10})
	if _, err := b.SubscribeKeywords("alice", []string{"cats", "dogs"}); err != nil {
		t.Fatal(err)
	}
	doc, _ := b.Publish("<html><body>cats dogs cats dogs</body></html>")
	if err := b.Feedback("alice", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	h := NewStatusHandler(b, StatusOptions{})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/explainz?user=alice", nil))
	if rec.Code != 200 {
		t.Fatalf("explainz: %d %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Profile pubsub.ProfileInfo `json:"profile"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Profile.User != "alice" || len(out.Profile.Vectors) == 0 {
		t.Fatalf("explainz profile = %+v", out.Profile)
	}
	if len(out.Profile.Audit) == 0 {
		t.Fatal("explainz profile has no audit events")
	}

	// Document join adds the score explanation.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET",
		"/explainz?user=alice&doc="+strconv.FormatInt(doc, 10), nil))
	if rec.Code != 200 {
		t.Fatalf("explainz with doc: %d %s", rec.Code, rec.Body.String())
	}
	var joined map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &joined); err != nil {
		t.Fatal(err)
	}
	if _, ok := joined["explanation"]; !ok {
		t.Errorf("explainz with doc has no explanation: %v", joined)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/explainz", 400},
		{"/explainz?user=nobody", 404},
		{"/explainz?user=alice&doc=banana", 400},
		{"/explainz?user=alice&doc=99999", 404},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, rec.Code, tc.code)
		}
	}
}

// TestStatusReadsLeaveTheIndexAlone: /statsz, the dashboard and the stats
// op are reads. On an index holding tombstones (alice re-profiled, so her
// old vector's postings are stale and "jazz" names only a dead entry) they
// must neither compact it nor count what a compaction would drop: the
// sizes they report are those of an index built fresh from the same
// profiles.
func TestStatusReadsLeaveTheIndexAlone(t *testing.T) {
	reg := metrics.NewRegistry()
	c, _, b := startServerOpts(t, pubsub.Options{Threshold: 0.2, Metrics: reg})
	for _, err := range []error{
		c.Subscribe("alice", "", []string{"cats", "jazz"}),
		c.Subscribe("bob", "", []string{"cats", "fish"}),
		c.Unsubscribe("alice"),
		c.Subscribe("alice", "", []string{"opera"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	fresh := pubsub.New(pubsub.Options{Threshold: 0.2})
	for user, kw := range map[string][]string{"alice": {"opera"}, "bob": {"cats", "fish"}} {
		if _, err := fresh.SubscribeKeywords(user, kw); err != nil {
			t.Fatal(err)
		}
	}
	want := fresh.IndexStats()

	housekeeping := func() (compactions int64, ratio float64) {
		snap := reg.Snapshot()
		return snap["mm_index_compactions_total"].(int64), snap["mm_index_tombstone_ratio"].(float64)
	}
	compactions, ratio := housekeeping()
	if ratio == 0 {
		t.Fatal("re-profiling left no tombstones: nothing for a status read to disturb")
	}

	h := NewStatusHandler(b, StatusOptions{})
	for _, path := range []string{"/statsz", "/"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		if path == "/statsz" {
			var got map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			for key, w := range map[string]int{"index_users": want.Users, "index_vectors": want.Vectors,
				"index_distinct": want.Distinct, "index_terms": want.Terms, "index_postings": want.Postings} {
				if got[key].(float64) != float64(w) {
					t.Errorf("statsz %s = %v, a fresh index of the same profiles reports %d", key, got[key], w)
				}
			}
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexVectors != want.Vectors || st.IndexDistinct != want.Distinct || st.IndexTerms != want.Terms {
		t.Errorf("stats op: %d vectors (%d distinct) over %d terms; a fresh index reports %d (%d) over %d",
			st.IndexVectors, st.IndexDistinct, st.IndexTerms, want.Vectors, want.Distinct, want.Terms)
	}
	if gc, gr := housekeeping(); gc != compactions || gr != ratio {
		t.Errorf("status reads moved the index: compactions %v → %v, tombstone ratio %v → %v", compactions, gc, ratio, gr)
	}
}
