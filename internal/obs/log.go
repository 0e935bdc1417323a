// Package obs is the black-box diagnostics substrate of the dissemination
// engine (DESIGN.md §13): structured logging with trace-id correlation,
// the Go runtime's gauges, the /readyz document and its rule, and a
// flight recorder that turns a crashing or overloaded broker into an
// on-disk diagnostic bundle.
//
// It composes the two earlier observability layers rather than replacing
// them: internal/metrics holds the numbers, internal/trace holds the span
// trees, and obs correlates both with the event stream and records the
// moment things go wrong.
//
// # The zero-alloc logging contract
//
// Logging follows the same cost discipline as metrics and tracing: the
// publish hot path may carry Debug-level log statements, but a disabled
// level must cost zero allocations and zero clock reads. Two rules make
// that hold:
//
//   - every method on a nil *Logger is a total no-op, so instrumented code
//     never branches on "is logging configured";
//
//   - hot-path call sites guard attribute construction behind Enabled,
//     which is one comparison:
//
//     if log.Enabled(obs.LevelDebug) {
//     log.Debug("pubsub: publish", slog.Int64("doc", id), ...)
//     }
//
// The guard matters: a bare variadic call builds its attribute slice at
// the call site before the level check can reject it. Enabled-guarded
// sites are pinned allocation-free by TestPublishUnsampledAddsNoAllocs
// (the PR 5 trace guard, extended here) and TestDisabledLogZeroAllocs.
//
// Events emitted inside a sampled request span carry the span's
// "16hex-16hex" wire context under the "trace_id" key (TraceAttr), so a
// log line, its /tracez span tree, and its histogram exemplar all join on
// the same id.
package obs

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"mmprofile/internal/trace"
)

// Levels re-exported so call sites need only the obs import for guards.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// LogOptions configures a Logger. The zero value logs text at Info to
// stderr with no flight-recorder tap.
type LogOptions struct {
	// Format selects the output encoding: "text" (default) or "json".
	Format string
	// Output receives the encoded records; default os.Stderr.
	Output io.Writer
	// Level is the minimum level emitted; records below it are dropped
	// before any encoding. Default LevelInfo.
	Level slog.Level
	// Ring, when non-nil, receives a copy of every emitted record — the
	// flight recorder's event stream. Dropped (disabled-level) records
	// never reach the ring.
	Ring *EventRing
}

// ParseLevel maps the -log-level flag grammar onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// Logger is a levelled structured logger: slog handlers underneath, a
// level gate in front, and an optional event-ring tap for the flight
// recorder. A nil *Logger is a fully disabled no-op. Safe for concurrent
// use.
type Logger struct {
	h     slog.Handler
	level slog.Level
	ring  *EventRing
}

// NewLogger builds a logger; see LogOptions for the zero-value defaults.
func NewLogger(o LogOptions) (*Logger, error) {
	out := o.Output
	if out == nil {
		out = os.Stderr
	}
	ho := &slog.HandlerOptions{Level: o.Level}
	var h slog.Handler
	switch strings.ToLower(o.Format) {
	case "", "text":
		h = slog.NewTextHandler(out, ho)
	case "json":
		h = slog.NewJSONHandler(out, ho)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text|json)", o.Format)
	}
	return &Logger{h: h, level: o.Level, ring: o.Ring}, nil
}

// NewLogfLogger adapts a legacy printf-style sink (wire.NewServer's logf
// parameter) into the structured pipeline: records render as
// "msg key=value ..." through logf, and still reach the ring, so even a
// logf-configured server feeds the flight recorder. A nil logf defaults
// to log.Printf, matching the old wire.NewServer behaviour.
func NewLogfLogger(logf func(string, ...any), ring *EventRing) *Logger {
	if logf == nil {
		logf = log.Printf
	}
	return &Logger{h: &logfHandler{logf: logf}, level: LevelInfo, ring: ring}
}

// Enabled reports whether records at the given level would be emitted.
// One nil check and one comparison: this is the hot-path guard the
// zero-alloc contract is built on.
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && level >= l.level
}

// Debug emits a debug record. Hot paths must guard with Enabled first —
// see the package comment.
func (l *Logger) Debug(msg string, attrs ...slog.Attr) { l.log(LevelDebug, msg, attrs) }

// Info emits an informational record.
func (l *Logger) Info(msg string, attrs ...slog.Attr) { l.log(LevelInfo, msg, attrs) }

// Warn emits a warning record.
func (l *Logger) Warn(msg string, attrs ...slog.Attr) { l.log(LevelWarn, msg, attrs) }

// Error emits an error record.
func (l *Logger) Error(msg string, attrs ...slog.Attr) { l.log(LevelError, msg, attrs) }

// Log emits a record at an arbitrary level.
func (l *Logger) Log(level slog.Level, msg string, attrs ...slog.Attr) { l.log(level, msg, attrs) }

func (l *Logger) log(level slog.Level, msg string, attrs []slog.Attr) {
	if !l.Enabled(level) {
		return
	}
	// The clock is read only past the level gate: a disabled call costs
	// no time.Now(), honouring the "no extra clock reads" contract.
	now := time.Now()
	rec := slog.NewRecord(now, level, msg, 0)
	rec.AddAttrs(attrs...)
	_ = l.h.Handle(context.Background(), rec)
	if l.ring != nil {
		l.ring.Push(eventFrom(now, level, msg, attrs))
	}
}

// TraceAttr renders a span's wire context ("16hex-16hex") as the
// "trace_id" attribute, the join key between log events, /tracez span
// trees, and histogram exemplars. A nil or unsampled span yields an empty
// value, which readers treat as "untraced".
func TraceAttr(sp *trace.Span) slog.Attr {
	return slog.String("trace_id", sp.Context())
}

// logfHandler renders records through a printf-style sink, for the legacy
// wire.NewServer logf path. Logger.Enabled is its level gate.
type logfHandler struct {
	logf   func(string, ...any)
	prefix []slog.Attr // accumulated WithAttrs
}

func (h *logfHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= LevelInfo
}

func (h *logfHandler) Handle(_ context.Context, rec slog.Record) error {
	var b strings.Builder
	b.WriteString(rec.Message)
	emit := func(a slog.Attr) {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		fmt.Fprintf(&b, "%v", a.Value.Any())
	}
	for _, a := range h.prefix {
		emit(a)
	}
	rec.Attrs(func(a slog.Attr) bool {
		emit(a)
		return true
	})
	h.logf("%s", b.String())
	return nil
}

func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	n := *h
	n.prefix = append(append([]slog.Attr{}, h.prefix...), attrs...)
	return &n
}

func (h *logfHandler) WithGroup(string) slog.Handler { return h }
