package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mm "mmprofile/internal/metrics"
	"mmprofile/internal/trace"
)

// readBundle decodes a bundle file, failing the test on invalid JSON.
func readBundle(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]any
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	return b
}

func fullRecorder(t *testing.T) (*Recorder, *EventRing) {
	t.Helper()
	reg := mm.NewRegistry()
	reg.Counter("mm_test_total", "test").Inc()
	mm.TopK[string](reg, "test_hot", "", 8, mm.FormatString).Offer("alice", 3)
	reg.Tick(time.Now())
	tr := trace.New(trace.Options{SampleRate: 1, Capacity: 4})
	sp := tr.Root("req", trace.Remote{})
	sp.End()
	ring := NewEventRing(16)
	ring.Push(Event{TimeUnixNano: 1, Level: "INFO", Msg: "boot"})
	rec := NewRecorder(t.TempDir(), ring, BundleSources{
		Metrics: reg,
		Tracer:  tr,
		Health: func() HealthSnapshot {
			return HealthSnapshot{Status: "ready", Components: map[string]ComponentHealth{"store_wal": {Status: "ready"}}}
		},
		WALInfo: func() (any, error) {
			return map[string]any{"generation": 3, "committed": 4096}, nil
		},
	})
	return rec, ring
}

// bundleSections are the keys every bundle carries, wired or not.
var bundleSections = []string{"goroutines", "metrics", "traces", "store", "events", "health", "top", "window"}

// TestDumpBundleSections is the crash-path coverage satellite: the bundle
// must contain all eight required sections and be valid JSON.
func TestDumpBundleSections(t *testing.T) {
	rec, _ := fullRecorder(t)
	path, err := rec.Dump("test")
	if err != nil {
		t.Fatal(err)
	}
	b := readBundle(t, path)
	for _, section := range bundleSections {
		if _, ok := b[section]; !ok {
			t.Errorf("bundle missing section %q", section)
		}
	}
	if !strings.Contains(b["goroutines"].(string), "goroutine") {
		t.Error("goroutines section does not look like a stack dump")
	}
	if b["reason"] != "test" {
		t.Errorf("reason = %v", b["reason"])
	}
	metricsSec := b["metrics"].(map[string]any)
	if metricsSec["mm_test_total"] == nil {
		t.Errorf("metrics section missing registered counter: %v", metricsSec)
	}
	traces := b["traces"].(map[string]any)
	if n := len(traces["recent"].([]any)); n != 1 {
		t.Errorf("traces.recent has %d entries, want 1", n)
	}
	store := b["store"].(map[string]any)
	if store["generation"] != float64(3) {
		t.Errorf("store section = %v", store)
	}
	events := b["events"].([]any)
	if len(events) != 1 || events[0].(map[string]any)["msg"] != "boot" {
		t.Errorf("events section = %v", events)
	}
	if b["health"].(map[string]any)["status"] != "ready" {
		t.Errorf("health section = %v", b["health"])
	}
	// The registry holds a dimension and has been ticked: both of its
	// other projections are live.
	top := b["top"].(map[string]any)
	dims, _ := top["dimensions"].([]any)
	if top["enabled"] != true || len(dims) != 1 || dims[0].(map[string]any)["name"] != "test_hot" {
		t.Errorf("top section = %v", top)
	}
	window := b["window"].(map[string]any)
	if window["enabled"] != true || window["samples"] != float64(1) || len(window["counters"].([]any)) != 2 {
		t.Errorf("window section = %v", window)
	}
	if b["time_unix_nano"] == nil || b["pid"] == nil || b["go_version"] == nil {
		t.Error("bundle missing envelope fields")
	}
	// Atomicity: no temp files left behind.
	entries, _ := os.ReadDir(rec.Dir())
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestDumpWithoutSourcesStillComplete(t *testing.T) {
	rec := NewRecorder(t.TempDir(), nil, BundleSources{})
	path, err := rec.Dump("bare")
	if err != nil {
		t.Fatal(err)
	}
	b := readBundle(t, path)
	for _, section := range bundleSections {
		if _, ok := b[section]; !ok {
			t.Errorf("bare bundle missing section %q", section)
		}
	}
	for _, section := range []string{"metrics", "top", "window"} {
		if en := b[section].(map[string]any)["enabled"]; en != false {
			t.Errorf("unwired %s section = %v", section, b[section])
		}
	}

	// A registry with no dimension that nobody ticks: metrics are there,
	// the other two projections say disabled.
	rec = NewRecorder(t.TempDir(), nil, BundleSources{Metrics: mm.NewRegistry()})
	if path, err = rec.Dump("idle"); err != nil {
		t.Fatal(err)
	}
	b = readBundle(t, path)
	for _, section := range []string{"top", "window"} {
		if en := b[section].(map[string]any)["enabled"]; en != false {
			t.Errorf("idle registry's %s section = %v", section, b[section])
		}
	}
	if b["events"] == nil {
		t.Error("events section must be [] not null")
	}
}

// TestDumpRefreshesRuntimeGauges: a bundle's runtime figures are the
// mm_runtime_* gauges of its metrics section, sampled by the dump itself
// rather than left as the last tick saw them.
func TestDumpRefreshesRuntimeGauges(t *testing.T) {
	reg := mm.NewRegistry()
	sampler := NewRuntimeSampler(reg)
	reg.Gauge("mm_runtime_goroutines", "").Set(0) // a stale sample
	rec := NewRecorder(t.TempDir(), nil, BundleSources{Metrics: reg, Sampler: sampler})
	path, err := rec.Dump("runtime")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := readBundle(t, path)["metrics"].(map[string]any)["mm_runtime_goroutines"].(float64); v < 1 {
		t.Errorf("bundle mm_runtime_goroutines = %v, want a fresh sample >= 1", v)
	}
}

func TestRecoverRepanicWritesBundleAndPreservesValue(t *testing.T) {
	rec, ring := fullRecorder(t)
	func() {
		defer func() {
			v := recover()
			if v != "boom" {
				t.Errorf("re-panic value = %v, want boom", v)
			}
		}()
		defer rec.RecoverRepanic()
		panic("boom")
	}()
	entries, err := os.ReadDir(rec.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var bundlePath string
	for _, e := range entries {
		if strings.Contains(e.Name(), "panic") && strings.HasSuffix(e.Name(), ".json") {
			bundlePath = filepath.Join(rec.Dir(), e.Name())
		}
	}
	if bundlePath == "" {
		t.Fatalf("no panic bundle in %v", entries)
	}
	b := readBundle(t, bundlePath)
	if b["reason"] != "panic" {
		t.Errorf("reason = %v", b["reason"])
	}
	// The panic value itself must be the final ring event.
	evs := ring.Snapshot()
	last := evs[len(evs)-1]
	if last.Msg != "panic" || last.Attrs["value"] != "boom" {
		t.Errorf("last ring event = %+v", last)
	}
}

func TestRecoverRepanicNoPanicIsNoOp(t *testing.T) {
	rec, _ := fullRecorder(t)
	func() {
		defer rec.RecoverRepanic()
	}()
	entries, _ := os.ReadDir(rec.Dir())
	if len(entries) != 0 {
		t.Errorf("bundle written without a panic: %v", entries)
	}
	var nilRec *Recorder
	func() {
		defer nilRec.RecoverRepanic() // must not panic on its own
	}()
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if _, err := r.Dump("x"); err == nil {
		t.Error("nil recorder Dump succeeded")
	}
	if r.Dir() != "" {
		t.Error("nil recorder Dir != \"\"")
	}
}

func TestSanitizeReason(t *testing.T) {
	if got := sanitizeReason("p99 over SLO!"); got != "p99_over_SLO_" {
		t.Errorf("sanitizeReason = %q", got)
	}
	if got := sanitizeReason(""); got != "manual" {
		t.Errorf("sanitizeReason(\"\") = %q", got)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewEventRing(3)
	for i := 0; i < 5; i++ {
		r.Push(Event{TimeUnixNano: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.TimeUnixNano != int64(i+2) {
			t.Errorf("evs[%d] = %d, want %d (oldest-first)", i, e.TimeUnixNano, i+2)
		}
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	var nilRing *EventRing
	nilRing.Push(Event{})
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 {
		t.Error("nil ring not a no-op")
	}
}
