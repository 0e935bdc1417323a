package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	mm "mmprofile/internal/metrics"
	"mmprofile/internal/trace"
)

// BundleSources names what a diagnostic bundle snapshots. Every field is
// optional; missing sources appear in the bundle as explicitly disabled
// rather than silently absent, so a reader can tell "not wired" from
// "empty". WALInfo is a closure (not a *store.Store) to keep obs free of
// a store dependency.
type BundleSources struct {
	// Metrics fills three sections: "metrics" (every instrument's value),
	// "top" (its attribution dimensions — who was hot at crash time is
	// usually the first triage question) and "window" (its ring, so a
	// bundle carries the last minute of rates, not just point totals).
	Metrics *mm.Registry
	// Sampler, when set, refreshes Metrics' mm_runtime_* gauges just
	// before the snapshot, so a bundle's runtime figures are current.
	Sampler *RuntimeSampler
	Tracer  *trace.Tracer
	// Health builds the "health" section (the /readyz snapshot); nil
	// reports a bare "ready".
	Health func() HealthSnapshot
	// WALInfo returns the store's journal summary (store.WALInfo); it
	// may be slow (it reads the WAL file), which is acceptable at dump
	// frequency.
	WALInfo func() (any, error)
}

// Recorder is the flight recorder: it holds the event ring and, on
// trigger, writes a self-contained diagnostic bundle to dir. Triggers in
// this codebase: panic (RecoverRepanic), SIGQUIT, the p99-over-SLO match
// watermark, and POST /debugz/dump. A nil *Recorder no-ops every method.
type Recorder struct {
	dir  string
	ring *EventRing
	src  BundleSources
}

// NewRecorder builds a recorder writing bundles under dir (created on
// first dump).
func NewRecorder(dir string, ring *EventRing, src BundleSources) *Recorder {
	return &Recorder{dir: dir, ring: ring, src: src}
}

// Dir returns the bundle directory.
func (r *Recorder) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// bundle is the on-disk document. The required sections — goroutines,
// metrics, traces, store, events, top, window — are always present
// (possibly as disabled/error placeholders) so bundle readers and the CI
// jq validation can rely on the shape.
type bundle struct {
	Reason       string         `json:"reason"`
	TimeUnixNano int64          `json:"time_unix_nano"`
	Time         string         `json:"time"`
	PID          int            `json:"pid"`
	GoVersion    string         `json:"go_version"`
	Health       HealthSnapshot `json:"health"`
	Goroutines   string         `json:"goroutines"`
	Metrics      any            `json:"metrics"`
	Traces       any            `json:"traces"`
	Store        any            `json:"store"`
	Top          any            `json:"top"`
	Window       any            `json:"window"`
	Events       []Event        `json:"events"`
}

// Dump writes a diagnostic bundle for reason and returns its path. The
// write is atomic (temp file + fsync + rename + directory fsync) so a
// crash mid-dump never leaves a half bundle under the final name.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("obs: no recorder configured")
	}
	now := time.Now()
	// A section whose source is not wired says so, rather than going missing.
	disabled := map[string]any{"enabled": false}
	b := bundle{
		Reason:       reason,
		TimeUnixNano: now.UnixNano(),
		Time:         now.UTC().Format(time.RFC3339Nano),
		PID:          os.Getpid(),
		GoVersion:    runtime.Version(),
		Goroutines:   goroutineDump(),
		Health:       NewSnapshot(false, nil),
		Events:       r.ring.Snapshot(),
		Metrics:      disabled,
		Traces:       disabled,
		Store:        disabled,
		Top:          disabled,
		Window:       disabled,
	}
	if b.Events == nil {
		b.Events = []Event{}
	}
	if r.src.Health != nil {
		b.Health = r.src.Health()
	}
	if reg := r.src.Metrics; reg != nil {
		if r.src.Sampler != nil {
			r.src.Sampler.SampleNow()
		}
		b.Metrics = reg.Snapshot()
		dims := reg.Tops(10)
		b.Top = map[string]any{"enabled": len(dims) > 0, "dimensions": dims}
		b.Window = reg.Window(60)
	}
	if r.src.Tracer != nil {
		b.Traces = r.src.Tracer.Snapshot()
	}
	if r.src.WALInfo != nil {
		if info, err := r.src.WALInfo(); err != nil {
			b.Store = map[string]any{"error": err.Error()}
		} else {
			b.Store = info
		}
	}

	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encode bundle: %w", err)
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: create dump dir: %w", err)
	}
	name := fmt.Sprintf("flight-%s-%s.json", now.UTC().Format("20060102T150405.000000000Z"), sanitizeReason(reason))
	final := filepath.Join(r.dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("obs: create bundle: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("obs: write bundle: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("obs: sync bundle: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("obs: close bundle: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("obs: publish bundle: %w", err)
	}
	if d, err := os.Open(r.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return final, nil
}

// RecoverRepanic is deferred at the top of request handlers and main:
// on panic it writes a "panic" bundle (with the panic value as a final
// ring event) and then re-panics with the original value so crash
// semantics — stack trace, non-zero exit — are preserved. Nil recorders
// and non-panic exits cost one recover() call.
func (r *Recorder) RecoverRepanic() {
	v := recover()
	if v == nil {
		return
	}
	if r != nil {
		r.ring.Push(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Level:        LevelError.String(),
			Msg:          "panic",
			Attrs:        map[string]any{"value": fmt.Sprint(v)},
		})
		if path, err := r.Dump("panic"); err == nil {
			fmt.Fprintf(os.Stderr, "obs: panic bundle written to %s\n", path)
		}
	}
	panic(v)
}

func goroutineDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		if len(buf) >= 64<<20 {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, reason)
}
