package wire

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mmprofile/internal/metrics"
	"mmprofile/internal/pubsub"
)

// topzFixture builds a broker with attribution traffic (drops included)
// whose registry has been ticked twice, and a response recorder.
func topzFixture(t *testing.T) (*pubsub.Broker, *httptest.ResponseRecorder) {
	t.Helper()
	b := pubsub.New(pubsub.Options{Threshold: 0.2, QueueSize: 2})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	// Publish between the two ticks so the windowed deltas are non-zero.
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	b.Metrics().Tick(now)
	for i := 0; i < 10; i++ {
		b.Publish("<html><body>cats cats cats</body></html>")
	}
	b.Metrics().Tick(now.Add(time.Second))
	return b, httptest.NewRecorder()
}

// TestTopzEndpoint pins the /topz contract: every dimension with its
// error bound, k honored, dim filtering (404 on unknown), the table
// rendering, and windowed rates once the registry has been ticked.
func TestTopzEndpoint(t *testing.T) {
	b, rec := topzFixture(t)
	h := NewStatusHandler(b, StatusOptions{})

	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topz", nil))
	if rec.Code != 200 {
		t.Fatalf("topz: %d", rec.Code)
	}
	var out struct {
		K          int `json:"k"`
		Dimensions []struct {
			metrics.TopSnapshot
			Rates map[string]float64 `json:"rates_per_second"`
		} `json:"dimensions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.K != 10 {
		t.Errorf("default k = %d", out.K)
	}
	byName := map[string]int{}
	for i, d := range out.Dimensions {
		byName[d.Name] = i
	}
	for _, want := range []string{
		"subscriber_deliveries", "subscriber_drops", "subscriber_hydrations", "term_postings_scanned",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("dimension %s missing from /topz", want)
		}
	}
	del := out.Dimensions[byName["subscriber_deliveries"]]
	if len(del.Entries) != 1 || del.Entries[0].Key != "alice" || del.Entries[0].Count != 10 {
		t.Errorf("deliveries = %+v", del.Entries)
	}
	if del.Capacity <= 0 || del.Total != 10 {
		t.Errorf("capacity %d total %v", del.Capacity, del.Total)
	}
	// 10 deliveries over the two ticks → a positive 10s-window rate.
	if del.Rates["10s"] <= 0 {
		t.Errorf("rates = %v, want a positive 10s rate", del.Rates)
	}

	// ?k= and ?dim= narrow the response.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topz?dim=subscriber_drops&k=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Dimensions) != 1 || out.Dimensions[0].Name != "subscriber_drops" || out.K != 1 {
		t.Errorf("filtered topz = %+v", out)
	}
	if n := out.Dimensions[0].Entries[0].Count; n != 8 {
		t.Errorf("drops = %v, want 8 (queue 2, 10 publishes)", n)
	}

	// Unknown dimension: 404 with a JSON error.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topz?dim=nope", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "nope") {
		t.Errorf("unknown dim: %d %q", rec.Code, rec.Body.String())
	}

	// Table rendering for terminals.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topz?format=table", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("table content type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "subscriber_deliveries") || !strings.Contains(body, "alice") {
		t.Errorf("table body missing entries:\n%s", body)
	}
}

// TestTszEndpoint pins /tsz: disabled for a registry nobody ticks, and for
// a ticked one the snapshot carries rates/series for every counter and
// dimension — none of them signed up by hand — and windowed histogram spans.
func TestTszEndpoint(t *testing.T) {
	b, rec := topzFixture(t)

	// Never ticked → explicitly disabled, not an error.
	hOff := NewStatusHandler(pubsub.New(pubsub.Options{Threshold: 0.2}), StatusOptions{})
	hOff.ServeHTTP(rec, httptest.NewRequest("GET", "/tsz", nil))
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || off.Enabled {
		t.Fatalf("tsz without ticks: %d enabled=%v", rec.Code, off.Enabled)
	}

	h := NewStatusHandler(b, StatusOptions{})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tsz?n=1", nil))
	var snap metrics.WindowSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.Samples != 2 {
		t.Fatalf("tsz = enabled %v samples %d", snap.Enabled, snap.Samples)
	}
	want := map[string]bool{
		"subscriber_deliveries":           true, // a dimension, under its own name
		"mm_pubsub_deliveries_total":      true,
		"mm_index_postings_scanned_total": true, // the index's, via the shared registry
	}
	for _, c := range snap.Counters {
		if want[c.Name] {
			delete(want, c.Name)
			if len(c.Serie) > 1 {
				t.Errorf("%s: ?n=1 returned %d series points", c.Name, len(c.Serie))
			}
			if c.Rates["1s"] <= 0 {
				t.Errorf("%s: rates = %v, want a positive 1s rate", c.Name, c.Rates)
			}
		}
	}
	for name := range want {
		t.Errorf("%s not in /tsz counters", name)
	}
	var hists []string
	for _, hw := range snap.Histograms {
		hists = append(hists, hw.Name)
	}
	if !slices.Contains(hists, "mm_pubsub_match_seconds") || !slices.Contains(hists, "mm_vector_strength") {
		t.Errorf("/tsz histograms = %v", hists)
	}

	// ?name= filters to one series.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tsz?name=subscriber_drops", nil))
	var one metrics.WindowSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Counters) != 1 || one.Counters[0].Name != "subscriber_drops" || len(one.Histograms) != 0 {
		t.Errorf("filtered tsz = %+v", one)
	}
}

// TestStatszTopSectionAndRootLinks pins the satellite surface: /statsz's
// "metrics" object carries the dimensions next to the counters (there is
// no separate "top" key), and the root page links every endpoint.
func TestStatszTopSectionAndRootLinks(t *testing.T) {
	b, rec := topzFixture(t)
	h := NewStatusHandler(b, StatusOptions{})

	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["top"]; ok {
		t.Errorf("statsz still has a separate top section: %v", stats["top"])
	}
	dim, ok := stats["metrics"].(map[string]any)["subscriber_deliveries"].(map[string]any)
	if !ok || dim["total_weight"] != float64(10) || len(dim["entries"].([]any)) != 1 {
		t.Fatalf("statsz metrics.subscriber_deliveries = %v", dim)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	body := rec.Body.String()
	for _, link := range []string{"/topz", "/tsz", "/explainz", "/debugz/dump", "/tracez", "/statsz", "/metrics"} {
		if !strings.Contains(body, link) {
			t.Errorf("root page missing %s", link)
		}
	}
}
