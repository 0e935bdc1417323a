package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"mmprofile/internal/trace"
)

func TestLoggerJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(LogOptions{Format: "json", Output: &buf, Level: LevelDebug})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("wire: accept", slog.String("remote_addr", "127.0.0.1:9"), slog.Int("n", 3))
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "wire: accept" {
		t.Errorf("msg = %v", rec["msg"])
	}
	if rec["remote_addr"] != "127.0.0.1:9" {
		t.Errorf("remote_addr = %v", rec["remote_addr"])
	}
	if rec["n"] != float64(3) {
		t.Errorf("n = %v", rec["n"])
	}
	if rec["level"] != "INFO" {
		t.Errorf("level = %v", rec["level"])
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(LogOptions{Format: "text", Output: &buf, Level: LevelWarn})
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("dropped")
	l.Info("dropped too")
	if buf.Len() != 0 {
		t.Fatalf("below-level records emitted: %q", buf.String())
	}
	if l.Enabled(LevelInfo) {
		t.Error("Enabled(info) = true at warn level")
	}
	if !l.Enabled(LevelError) {
		t.Error("Enabled(error) = false at warn level")
	}
	l.Warn("visible")
	if !strings.Contains(buf.String(), "visible") {
		t.Errorf("record at the level missing: %q", buf.String())
	}
}

func TestNilLoggerNoOps(t *testing.T) {
	var l *Logger
	if l.Enabled(LevelError) {
		t.Error("nil logger Enabled = true")
	}
	// Must not panic.
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
}

func TestLoggerRingTap(t *testing.T) {
	ring := NewEventRing(8)
	var buf bytes.Buffer
	l, err := NewLogger(LogOptions{Format: "json", Output: &buf, Level: LevelInfo, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("below level — must not reach ring")
	l.Warn("store: sync failed", slog.String("err", "disk full"))
	evs := ring.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("ring holds %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Msg != "store: sync failed" || e.Level != "WARN" {
		t.Errorf("event = %+v", e)
	}
	if e.Attrs["err"] != "disk full" {
		t.Errorf("attrs = %v", e.Attrs)
	}
	if e.TimeUnixNano == 0 {
		t.Error("event has zero timestamp")
	}
}

func TestNewLogfLoggerAdapter(t *testing.T) {
	var lines []string
	ring := NewEventRing(4)
	l := NewLogfLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, ring)
	l.Info("wire: decode", slog.String("remote_addr", "10.0.0.1:5"), slog.String("err", "bad json"))
	if len(lines) != 1 {
		t.Fatalf("logf called %d times, want 1", len(lines))
	}
	want := "wire: decode remote_addr=10.0.0.1:5 err=bad json"
	if lines[0] != want {
		t.Errorf("logf line = %q, want %q", lines[0], want)
	}
	if got := len(ring.Snapshot()); got != 1 {
		t.Errorf("ring events = %d, want 1 (logf path must feed the recorder)", got)
	}
	// Debug is below the adapter's fixed Info level.
	l.Debug("hidden")
	if len(lines) != 1 {
		t.Errorf("debug leaked through logf adapter: %v", lines)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "ERROR": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) accepted")
	}
	if _, err := NewLogger(LogOptions{Format: "xml"}); err == nil {
		t.Error("NewLogger(format=xml) accepted")
	}
}

func TestTraceAttr(t *testing.T) {
	if a := TraceAttr(nil); a.Key != "trace_id" || a.Value.String() != "" {
		t.Errorf("TraceAttr(nil) = %v", a)
	}
	tr := trace.New(trace.Options{SampleRate: 1, Capacity: 4})
	sp := tr.Root("req", trace.Remote{})
	a := TraceAttr(sp)
	ctx := a.Value.String()
	if len(ctx) != 33 || ctx[16] != '-' {
		t.Errorf("trace_id = %q, want 16hex-16hex", ctx)
	}
	sp.End()
}

// TestDisabledLogZeroAllocs pins the package's core promise: an
// Enabled-guarded call site at a disabled level performs zero
// allocations. This is the pattern the publish hot path uses.
func TestDisabledLogZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(LogOptions{Format: "json", Output: &buf, Level: LevelInfo})
	if err != nil {
		t.Fatal(err)
	}
	docID := int64(42)
	allocs := testing.AllocsPerRun(1000, func() {
		if l.Enabled(LevelDebug) {
			l.Debug("pubsub: publish", slog.Int64("doc", docID))
		}
	})
	if allocs != 0 {
		t.Errorf("guarded disabled-level call allocates %.1f/op, want 0", allocs)
	}
	// The nil logger must be free even without the guard idiom's branch.
	var nilLog *Logger
	allocs = testing.AllocsPerRun(1000, func() {
		if nilLog.Enabled(LevelDebug) {
			nilLog.Debug("pubsub: publish", slog.Int64("doc", docID))
		}
	})
	if allocs != 0 {
		t.Errorf("nil logger guarded call allocates %.1f/op, want 0", allocs)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled calls produced output: %q", buf.String())
	}
}
