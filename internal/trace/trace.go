// Package trace is the zero-dependency request-scoped tracing subsystem of
// the dissemination pipeline (DESIGN.md §11): spans with trace/parent ids,
// typed attributes, and nanosecond timings, recorded into fixed-size
// sampled ring buffers.
//
// Two policies decide what gets captured:
//
//   - head sampling: roughly SampleRate of root spans are recorded in
//     full, children and all (the decision is one atomic add on a counter,
//     taken before any clock is read or byte allocated);
//   - always-capture-slow: a request that was not head-sampled but whose
//     duration meets SlowThreshold is captured post hoc as a synthetic
//     root-only trace — the timing is already in hand from the caller's
//     existing instrumentation clocks, so the slow path is the only one
//     that pays.
//
// The cost contract mirrors internal/metrics: every method is safe on a
// nil *Tracer or nil *Span, and the unsampled hot path costs zero
// allocations and no clock reads beyond the ones the caller already
// performs for its latency histograms (Span constructors take explicit
// timestamps precisely so instrumented code can reuse them).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request's whole span tree; SpanID one span in it.
// Both are non-zero for live traces: zero means "absent".
type TraceID uint64

// SpanID identifies a single span within a trace.
type SpanID uint64

// Options configures a Tracer.
type Options struct {
	// SampleRate is the fraction of root spans captured by head sampling,
	// in [0,1]. 0 disables head sampling entirely. Internally the rate is
	// rounded to 1-in-N, so e.g. 0.3 samples every 3rd root.
	SampleRate float64
	// SlowThreshold is the duration at which a request is captured even
	// when head sampling skipped it (as a synthetic root-only trace) and
	// at which a sampled trace is additionally retained in the slow ring.
	// 0 disables slow capture.
	SlowThreshold time.Duration
	// Capacity is each ring's trace capacity (recent and slow); 0 means 64.
	Capacity int
}

// Tracer owns the sampling policy and the two completed-trace rings. All
// methods are safe for concurrent use; a nil *Tracer is a fully disabled
// no-op, so instrumented code never branches on configuration.
type Tracer struct {
	every  uint64 // head sampling: capture every Nth root; 0 = off
	slowNS int64  // always-capture threshold in nanoseconds; 0 = off

	seq atomic.Uint64 // root-span counter driving head sampling
	ids atomic.Uint64 // id sequence, mixed through splitmix64

	sampled      atomic.Uint64 // roots captured by head sampling or remote join
	slowCaptured atomic.Uint64 // traces that met SlowThreshold

	recent ring
	slow   ring
}

// New builds a tracer; see Options for the zero-value defaults.
func New(o Options) *Tracer {
	var every uint64
	if o.SampleRate > 0 {
		if o.SampleRate >= 1 {
			every = 1
		} else {
			every = uint64(1/o.SampleRate + 0.5)
			if every == 0 {
				every = 1
			}
		}
	}
	capacity := o.Capacity
	if capacity <= 0 {
		capacity = 64
	}
	t := &Tracer{every: every, slowNS: o.SlowThreshold.Nanoseconds()}
	t.recent.init(capacity)
	t.slow.init(capacity)
	// Seed the id sequence from the only clock read the tracer ever takes
	// on its own, so two processes started back to back do not collide.
	t.ids.Store(uint64(time.Now().UnixNano()))
	return t
}

// Enabled reports whether this tracer can ever capture anything.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.every > 0 || t.slowNS > 0)
}

// Slow reports whether d meets the always-capture threshold. The check is
// two loads and a comparison, cheap enough for unsampled hot paths.
func (t *Tracer) Slow(d time.Duration) bool {
	return t != nil && t.slowNS > 0 && d.Nanoseconds() >= t.slowNS
}

// Counts returns the lifetime capture counters — roots captured by head
// sampling (or remote join) and traces retained for meeting
// SlowThreshold — without the ring copies Snapshot performs, so gauges
// can poll it.
func (t *Tracer) Counts() (sampled, slowCaptured uint64) {
	if t == nil {
		return 0, 0
	}
	return t.sampled.Load(), t.slowCaptured.Load()
}

// sampleHead takes the head-sampling decision: one atomic add, no clocks,
// no allocation.
func (t *Tracer) sampleHead() bool {
	if t == nil || t.every == 0 {
		return false
	}
	return t.seq.Add(1)%t.every == 0
}

// nextID returns a well-mixed non-zero id.
func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// splitmix64 is Sebastiano Vigna's public-domain mixer: a bijection on
// uint64, so sequential inputs yield distinct well-spread ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Remote is trace context received from a peer (the wire protocol's
// "trace" request field). A non-zero Trace means the peer sampled the
// request; the local tracer then joins the trace regardless of its own
// head-sampling decision, so a distributed request is captured whole.
type Remote struct {
	Trace TraceID
	Span  SpanID
}

// OK reports whether r carries usable context.
func (r Remote) OK() bool { return r.Trace != 0 }

// RootAt begins a trace rooted at start if this root is head-sampled or
// remote carries sampled context; otherwise it returns nil (and every
// Span method on nil is a no-op). Pass the timestamp your surrounding
// instrumentation already read — RootAt never touches the clock.
func (t *Tracer) RootAt(name string, start time.Time, remote Remote) *Span {
	if t == nil || (!remote.OK() && !t.sampleHead()) {
		return nil
	}
	return t.startRoot(name, start.UnixNano(), remote)
}

// Root is RootAt with the clock read taken only after the sampling
// decision, for callers with no timestamp of their own in hand.
func (t *Tracer) Root(name string, remote Remote) *Span {
	if t == nil || (!remote.OK() && !t.sampleHead()) {
		return nil
	}
	return t.startRoot(name, time.Now().UnixNano(), remote)
}

// startRoot builds a sampled root; the capture decision is already taken.
func (t *Tracer) startRoot(name string, startNano int64, remote Remote) *Span {
	t.sampled.Add(1)
	r := &record{tr: t, remoteParent: remote.Span}
	if remote.OK() {
		r.trace = remote.Trace
	} else {
		r.trace = TraceID(t.nextID())
	}
	s := &Span{rec: r, id: SpanID(t.nextID()), parent: remote.Span, name: name, start: startNano}
	r.root = s
	r.spans = append(r.spans, s)
	return s
}

// CaptureSlow records a synthetic root-only trace for a request that was
// not head-sampled but turned out slow: it costs nothing unless the
// duration meets SlowThreshold. It returns the assigned trace id (for
// histogram exemplars), or 0 when nothing was captured.
func (t *Tracer) CaptureSlow(name string, start, end time.Time, attrs ...Attr) TraceID {
	d := end.Sub(start)
	if !t.Slow(d) {
		return 0
	}
	r := &record{tr: t, trace: TraceID(t.nextID()), synthetic: true}
	s := &Span{rec: r, id: SpanID(t.nextID()), name: name, start: start.UnixNano(), end: end.UnixNano(), attrs: attrs}
	r.root = s
	r.spans = append(r.spans, s)
	t.push(r, d)
	return r.trace
}

// push files a completed trace into the rings.
func (t *Tracer) push(r *record, d time.Duration) {
	if t.slowNS > 0 && d.Nanoseconds() >= t.slowNS {
		r.slow = true
		t.slowCaptured.Add(1)
		t.slow.push(r)
	}
	t.recent.push(r)
}

// record accumulates one trace's spans until the root ends. Workers
// creating child spans concurrently serialize on mu; a completed record
// in a ring is read under the same mutex by Snapshot.
type record struct {
	tr           *Tracer
	trace        TraceID
	remoteParent SpanID
	synthetic    bool
	slow         bool

	mu    sync.Mutex
	spans []*Span
	root  *Span
}

// Span is one timed operation inside a trace. The zero of *Span (nil) is
// the not-sampled case: every method is a no-op returning zero values, so
// instrumented code is written once, without sampling branches.
type Span struct {
	rec    *record
	id     SpanID
	parent SpanID
	name   string
	start  int64 // UnixNano
	end    int64 // UnixNano; 0 while open
	attrs  []Attr
}

// Trace returns the owning trace id (0 on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.trace
}

// ID returns the span id (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// ChildAt starts a child span at the given timestamp. Safe to call from
// multiple goroutines sharing a parent.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	r := s.rec
	c := &Span{rec: r, id: SpanID(r.tr.nextID()), parent: s.id, name: name, start: start.UnixNano()}
	r.mu.Lock()
	r.spans = append(r.spans, c)
	r.mu.Unlock()
	return c
}

// Child is ChildAt(name, time.Now()), reading the clock only when the
// span is live.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.ChildAt(name, time.Now())
}

// EndAt closes the span at the given timestamp. Ending the root files the
// whole trace into the tracer's rings; children must be ended first.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	s.end = t.UnixNano()
	if s.rec.root == s {
		s.rec.tr.push(s.rec, time.Duration(s.end-s.start))
	}
}

// End is EndAt(time.Now()), reading the clock only when the span is live.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// SetString attaches a string attribute. Attributes must be set by the
// goroutine that owns the span, before its trace's root ends.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, String(key, v))
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Int(key, v))
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Float(key, v))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Bool(key, v))
}

// ring is a fixed-size overwrite-oldest buffer of completed traces.
type ring struct {
	mu  sync.Mutex
	buf []*record
	pos int    // next slot to overwrite
	n   uint64 // total pushes ever
}

func (r *ring) init(capacity int) { r.buf = make([]*record, 0, capacity) }

func (r *ring) push(rec *record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.pos] = rec
		r.pos = (r.pos + 1) % len(r.buf)
	}
	r.n++
	r.mu.Unlock()
}

// records returns the ring's contents, newest first.
func (r *ring) records() []*record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]*record, 0, n)
	// Before the ring fills, the newest is at n-1 and pos stays 0; once
	// full, pos is the oldest slot, so the newest sits just behind it.
	newest := n - 1
	if n == cap(r.buf) && n > 0 {
		newest = (r.pos - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(newest-i+n)%n])
	}
	return out
}
