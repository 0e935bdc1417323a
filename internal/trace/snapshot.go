package trace

import "time"

// SpanSnapshot is one span rendered for exposition (/tracez).
type SpanSnapshot struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"` // absent on the root (unless remote)
	Name   string `json:"name"`
	// StartUnixNano anchors the span on the wall clock; offsets between
	// spans of one trace are exact (same clock, one process).
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationUS is the span's length in microseconds; 0 for a span that
	// never ended (a bug in the instrumentation, surfaced rather than
	// hidden).
	DurationUS float64 `json:"duration_us"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// TraceSnapshot is one completed trace rendered for exposition.
type TraceSnapshot struct {
	Trace         string  `json:"trace"`
	Root          string  `json:"root"` // root span name
	StartUnixNano int64   `json:"start_unix_nano"`
	DurationMS    float64 `json:"duration_ms"`
	// Slow marks traces that met SlowThreshold.
	Slow bool `json:"slow,omitempty"`
	// Synthetic marks root-only traces captured post hoc by the
	// always-capture-slow policy: no children were recorded because the
	// head-sampling decision had already skipped the request.
	Synthetic bool `json:"synthetic,omitempty"`
	// RemoteParent is the propagated parent span id when this trace
	// joined a peer's trace over the wire.
	RemoteParent string         `json:"remote_parent,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// Snapshot is the tracer's full exposition state (/tracez).
type Snapshot struct {
	SampleEvery     uint64          `json:"sample_every"` // head sampling captures every Nth root; 0 = off
	SlowThresholdMS float64         `json:"slow_threshold_ms"`
	Sampled         uint64          `json:"sampled"`
	SlowCaptured    uint64          `json:"slow_captured"`
	Recent          []TraceSnapshot `json:"recent"`
	Slow            []TraceSnapshot `json:"slow"`
}

// Snapshot renders both rings, newest trace first. Safe to call
// concurrently with capture; each trace is copied under its own lock.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	s := Snapshot{
		SampleEvery:     t.every,
		SlowThresholdMS: float64(t.slowNS) / 1e6,
		Sampled:         t.sampled.Load(),
		SlowCaptured:    t.slowCaptured.Load(),
		Recent:          snapshotRecords(t.recent.records()),
		Slow:            snapshotRecords(t.slow.records()),
	}
	return s
}

// Find returns the snapshot of one trace by hex id, searching the recent
// ring then the slow ring.
func (t *Tracer) Find(id string) (TraceSnapshot, bool) {
	if t == nil {
		return TraceSnapshot{}, false
	}
	for _, recs := range [][]*record{t.recent.records(), t.slow.records()} {
		for _, r := range recs {
			if r.trace.String() == id {
				return r.snapshot(), true
			}
		}
	}
	return TraceSnapshot{}, false
}

func snapshotRecords(recs []*record) []TraceSnapshot {
	out := make([]TraceSnapshot, len(recs))
	for i, r := range recs {
		out[i] = r.snapshot()
	}
	return out
}

func (r *record) snapshot() TraceSnapshot {
	r.mu.Lock()
	spans := make([]SpanSnapshot, len(r.spans))
	for i, sp := range r.spans {
		spans[i] = SpanSnapshot{
			ID:            sp.id.String(),
			Parent:        sp.parent.String(),
			Name:          sp.name,
			StartUnixNano: sp.start,
			Attrs:         sp.attrs,
		}
		if sp.end > sp.start {
			spans[i].DurationUS = float64(sp.end-sp.start) / float64(time.Microsecond)
		}
	}
	root := r.root
	r.mu.Unlock()
	ts := TraceSnapshot{
		Trace:         r.trace.String(),
		Root:          root.name,
		StartUnixNano: root.start,
		Slow:          r.slow,
		Synthetic:     r.synthetic,
		RemoteParent:  r.remoteParent.String(),
		Spans:         spans,
	}
	if root.end > root.start {
		ts.DurationMS = float64(root.end-root.start) / float64(time.Millisecond)
	}
	return ts
}
