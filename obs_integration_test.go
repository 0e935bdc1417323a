// Diagnostics integration test: the server mmserver runs, driven through a
// full lifecycle: starting → ready → a bundle dumped over HTTP → draining.
// Pins the liveness/readiness split end to end: /healthz stays green through
// the drain while /readyz flips to 503.
package mmprofile_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mmprofile/internal/obs"
	"mmprofile/internal/server"
	"mmprofile/internal/trace"
	"mmprofile/internal/wire"
)

// readyzSnap fetches /readyz without erroring on 503 (that status IS the
// signal) and decodes the snapshot.
func readyzSnap(t *testing.T, base string) (int, obs.HealthSnapshot) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.HealthSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("readyz body %q: %v", raw, err)
	}
	return resp.StatusCode, snap
}

func TestObsLifecycle(t *testing.T) {
	srv := newServer(t, server.Config{
		Threshold: 0.2, Retention: 1 << 10, TraceSample: 1, LogFormat: "json",
		StateDir: t.TempDir(), DumpDir: t.TempDir(),
	})
	defer srv.Stop()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Phase 1 — starting: not ready yet, but alive.
	code, snap := readyzSnap(t, hs.URL)
	if code != 503 || snap.Status != "not_ready" {
		t.Fatalf("starting: readyz %d %q, want 503 not_ready", code, snap.Status)
	}
	if snap.Components["server"].Reason != "starting" {
		t.Errorf("starting: server component = %+v", snap.Components["server"])
	}

	// Phase 2 — ready once served: both components green, and some real
	// traffic so the dumped bundle has non-trivial metrics and a captured
	// trace. (An answered request proves Serve is past reporting ready.)
	addr, stop := serve(t, srv)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	code, snap = readyzSnap(t, hs.URL)
	if code != 200 || snap.Status != "ready" {
		t.Fatalf("steady: readyz %d %q, want 200 ready", code, snap.Status)
	}
	if snap.Components["store_wal"].Status != "ready" {
		t.Errorf("steady: store_wal = %+v", snap.Components["store_wal"])
	}
	doc, _, err := c.Publish("<html><body>cats cats cats</body></html>")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feedback("alice", doc, true); err != nil {
		t.Fatal(err)
	}

	// Phase 3 — dump a bundle over HTTP and validate all five sections
	// landed with real content from this run.
	resp, err := http.Post(hs.URL+"/debugz/dump", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("dump: %d %s", resp.StatusCode, body)
	}
	var dumped struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dumped); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dumped.Path)
	if err != nil {
		t.Fatalf("bundle not on disk: %v", err)
	}
	var bundle struct {
		Reason     string             `json:"reason"`
		Health     obs.HealthSnapshot `json:"health"`
		Goroutines string             `json:"goroutines"`
		Metrics    map[string]any     `json:"metrics"`
		Traces     trace.Snapshot     `json:"traces"`
		Store      map[string]any     `json:"store"`
		Events     []obs.Event        `json:"events"`
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if bundle.Reason != "endpoint" {
		t.Errorf("bundle reason = %q", bundle.Reason)
	}
	if !strings.Contains(bundle.Goroutines, "goroutine") {
		t.Error("bundle goroutine dump is empty")
	}
	if v, ok := bundle.Metrics["mm_pubsub_published_total"].(float64); !ok || v != 1 {
		t.Errorf("bundle metrics published = %v", bundle.Metrics["mm_pubsub_published_total"])
	}
	if len(bundle.Traces.Recent) == 0 {
		t.Error("bundle has no captured traces")
	}
	// The subscribe + feedback above were journaled, so WALInfo reports
	// two committed records.
	if v, ok := bundle.Store["Records"].(float64); !ok || v != 2 {
		t.Errorf("bundle store section = %v, want Records=2", bundle.Store)
	}
	found := false
	for _, ev := range bundle.Events {
		if ev.Msg == "mmserver: listening" { // logged by Serve
			found = true
		}
	}
	if !found {
		t.Errorf("bundle event ring misses the logged line: %+v", bundle.Events)
	}
	if !bundle.Health.Ready() {
		t.Errorf("bundle health = %+v, want ready", bundle.Health)
	}

	// Phase 4 — drain: readiness refuses, liveness stays green.
	stop()
	code, snap = readyzSnap(t, hs.URL)
	if code != 503 || snap.Status != "draining" || !snap.Draining {
		t.Fatalf("drain: readyz %d %+v, want 503 draining", code, snap)
	}
	live, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != 200 {
		t.Errorf("drain: healthz %d, want 200 (liveness must survive the drain)", live.StatusCode)
	}
}
