// Package metrics is the zero-dependency, low-overhead observability layer
// of the dissemination pipeline (DESIGN.md §8): atomic counters,
// float gauges, log-bucketed latency histograms and top-k attribution
// sketches (sketch.go), collected in one Registry that exposes Prometheus
// text format and JSON snapshots and keeps its own history — a ring of
// per-tick samples (window.go) that answers windowed rates and quantiles.
//
// Design goals:
//
//   - a counter increment or histogram observation costs a handful of
//     nanoseconds: no locks, no maps, no allocation on the hot path;
//   - nil instruments are safe no-ops, so instrumented code never branches
//     on "is monitoring configured";
//   - registration is idempotent (same name + same kind returns the same
//     instrument), so independently instrumented components — the broker,
//     its index, the profile store — can share one registry;
//   - reads are weakly consistent: a snapshot taken during concurrent
//     writes may tear across instruments, never within a single counter.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing counter: one atomic word. The zero
// value is ready to use; a nil *Counter is a no-op.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (d must be ≥ 0 to keep the counter monotone).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is an instantaneous float64 value. The zero value is ready to use;
// a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// FuncGauge is a gauge whose value is computed at read time by a callback
// (e.g. "current subscriber count"). The callback must be safe to call
// from any goroutine and should be cheap: it runs on every scrape.
type FuncGauge struct {
	fn atomic.Value // func() float64
}

// Value evaluates the callback.
func (g *FuncGauge) Value() float64 {
	if g == nil {
		return 0
	}
	fn, _ := g.fn.Load().(func() float64)
	if fn == nil {
		return 0
	}
	return fn()
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram buckets are powers of two: bucket i counts observations in
// (2^(histMinExp+i-1), 2^(histMinExp+i)]. For latencies recorded in
// seconds this spans ~1 ns to ~12 days with ≤ 2× relative error per
// bucket — ample for p50/p95/p99 monitoring — while keeping Observe at a
// Frexp plus two uncontended atomic adds.
const (
	histMinExp  = -30 // first bucket: v ≤ 2^-30 (≈ 0.93 ns in seconds)
	histMaxExp  = 20  // last finite bucket: v ≤ 2^20 (≈ 12 days in seconds)
	histBuckets = histMaxExp - histMinExp + 1
)

// Histogram is a log₂-bucketed distribution of non-negative float64
// observations (latencies in seconds, profile-vector strengths, …). The
// zero value is ready to use; a nil *Histogram is a no-op.
type Histogram struct {
	// counts[histBuckets] is the overflow bucket (> 2^histMaxExp); it has
	// no finite upper bound and surfaces only in _count/+Inf.
	counts [histBuckets + 1]atomic.Int64
	// sumNanos accumulates observations scaled by 1e9, so the sum is a
	// single atomic add instead of a CAS loop on float bits. The ~1e-9
	// absolute granularity is far below bucket resolution.
	sumNanos atomic.Int64

	// Exemplar table, lazily allocated on the first ObserveExemplar: one
	// slot per bucket holding the slowest observation that carried a
	// trace id, so a histogram bucket can be joined back to the concrete
	// request (/tracez) that produced it. Exemplar updates happen only
	// for sampled requests, so a mutex is fine here.
	exMu sync.Mutex
	ex   *[histBuckets + 1]exemplarSlot
}

// exemplarSlot is one bucket's worst-case witness.
type exemplarSlot struct {
	value float64
	trace uint64
	set   bool
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac · 2^exp, frac ∈ [0.5, 1)
	if frac == 0.5 {
		exp-- // exact powers of two belong to their own ≤-bucket
	}
	switch {
	case exp < histMinExp:
		return 0
	case exp > histMaxExp:
		return histBuckets
	}
	return exp - histMinExp
}

// upperBound returns bucket i's inclusive upper bound.
func upperBound(i int) float64 { return math.Ldexp(1, histMinExp+i) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.sumNanos.Add(int64(v * 1e9))
}

// ObserveSince records the elapsed time since t, in seconds — the idiom
// for latency instrumentation: t := time.Now(); ...; h.ObserveSince(t).
func (h *Histogram) ObserveSince(t time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t).Seconds())
}

// ObserveExemplar records a value like Observe and, when traceID is
// non-zero, remembers it as the bucket's exemplar if it is the slowest
// such observation seen for that bucket — linking the histogram to the
// trace (internal/trace) that produced its tail. Call it only on sampled
// requests: unlike Observe, it takes a mutex and may allocate once.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := bucketOf(v)
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = new([histBuckets + 1]exemplarSlot)
	}
	if s := &h.ex[i]; !s.set || v >= s.value {
		*s = exemplarSlot{value: v, trace: traceID, set: true}
	}
	h.exMu.Unlock()
}

// ExemplarSnapshot is one bucket's exemplar: the bucket's inclusive upper
// bound ("+Inf" for the overflow bucket), the slowest traced observation
// that landed in it, and that observation's trace id in /tracez hex form.
type ExemplarSnapshot struct {
	LE    string  `json:"le"`
	Value float64 `json:"value"`
	Trace string  `json:"trace"`
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Exemplars lists, per bucket that ever received a traced
	// observation, the slowest such observation and its trace id.
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// Snapshot summarizes the histogram: total count, sum, interpolated
// p50/p95/p99, and any per-bucket trace exemplars.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: float64(h.sumNanos.Load()) / 1e9}
	if total > 0 {
		s.P50 = quantile(&counts, total, 0.50)
		s.P95 = quantile(&counts, total, 0.95)
		s.P99 = quantile(&counts, total, 0.99)
	}
	s.Exemplars = h.exemplars()
	return s
}

// exemplars snapshots the exemplar table (nil when none were recorded).
func (h *Histogram) exemplars() []ExemplarSnapshot {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.ex == nil {
		return nil
	}
	var out []ExemplarSnapshot
	for i := range h.ex {
		s := h.ex[i]
		if !s.set {
			continue
		}
		le := "+Inf"
		if i < histBuckets {
			le = strconv.FormatFloat(upperBound(i), 'g', -1, 64)
		}
		out = append(out, ExemplarSnapshot{
			LE:    le,
			Value: s.value,
			Trace: fmt.Sprintf("%016x", s.trace),
		})
	}
	return out
}

// Quantile returns the interpolated q-quantile (0 < q < 1) of the
// observations so far, 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.bucketCounts()
	return countsQuantile(&counts, q)
}

// numBuckets is the number of histogram buckets including the overflow
// bucket, sized for bucketCounts arrays.
const numBuckets = histBuckets + 1

// bucketCounts returns the cumulative per-bucket observation counts as a
// fixed-size array (by value: no heap allocation, safe to diff between
// ring rows). Bucket i covers (bucketBound(i-1), bucketBound(i)]; the last
// slot is the overflow bucket. A nil histogram returns all zeros.
func (h *Histogram) bucketCounts() [numBuckets]int64 {
	var counts [numBuckets]int64
	if h == nil {
		return counts
	}
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// bucketBound returns bucket i's inclusive upper bound in seconds;
// i = numBuckets-1 (the overflow bucket) reports +Inf.
func bucketBound(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return upperBound(i)
}

// countsQuantile interpolates the q-quantile from an assembled
// bucket-count array — the delta of two bucketCounts samples, which yields
// a quantile over just the observations between them. Returns 0 when the
// counts are empty.
func countsQuantile(counts *[numBuckets]int64, q float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return quantile(counts, total, q)
}

// quantile interpolates linearly inside the bucket containing the target
// rank; the first bucket's lower bound is 0, the overflow bucket reports
// its lower bound (the best available answer).
//
// Interpolation is well-defined even when every sample lands in a single
// log₂ bucket (lo, hi]: the q-quantile is then lo + (hi−lo)·q exactly —
// the rank fraction distributes the samples uniformly across the bucket.
// Because rank q·total is nondecreasing in q and the cumulative scan
// resolves ranks left to right, reported quantiles are monotone:
// p50 ≤ p95 ≤ p99 always holds, single bucket or not (pinned by
// TestQuantileSingleBucketMonotone).
func quantile(counts *[histBuckets + 1]int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			if i == histBuckets {
				return upperBound(histBuckets - 1) // overflow: lower bound
			}
			lo := 0.0
			if i > 0 {
				lo = upperBound(i - 1)
			}
			hi := upperBound(i)
			frac := (rank - cum) / float64(n)
			return lo + (hi-lo)*frac
		}
		cum += float64(n)
	}
	return upperBound(histBuckets - 1)
}

// ---------------------------------------------------------------------------
// Registry

// Registry is a named collection of instruments with Prometheus and JSON
// exposition. Registration is idempotent: asking for an existing name of
// the same kind returns the existing instrument (a FuncGauge's callback is
// replaced, last writer wins); a kind collision panics, being always a
// programming error.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*entry

	// What Tick samples, in registration order; both only ever grow, so
	// an entry's col is its column in every ring row written after it
	// registered (window.go).
	series []*entry // counters and top-k dimensions
	hists  []*entry // histograms
	ring   ring
}

type entry struct {
	name, help string
	m          instrument
	col        int // index into Registry.series or .hists; -1 for gauges
}

// instrument is the exposition contract each metric kind implements.
type instrument interface {
	kind() string       // "counter" | "gauge" | "histogram" | "topk"
	snapshotValue() any // JSON-marshalable value
}

func (c *Counter) kind() string       { return "counter" }
func (c *Counter) snapshotValue() any { return c.Value() }

func (g *Gauge) kind() string       { return "gauge" }
func (g *Gauge) snapshotValue() any { return g.Value() }

func (g *FuncGauge) kind() string       { return "gauge" }
func (g *FuncGauge) snapshotValue() any { return g.Value() }

func (h *Histogram) kind() string       { return "histogram" }
func (h *Histogram) snapshotValue() any { return h.Snapshot() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register implements the idempotent-name, panic-on-kind-clash protocol.
func (r *Registry) register(name, help string, fresh instrument) instrument {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.m.kind() != fresh.kind() {
			panic(fmt.Sprintf("metrics: %q already registered as a %s", name, e.m.kind()))
		}
		if _, isFunc := e.m.(*FuncGauge); isFunc != isFuncGauge(fresh) {
			panic(fmt.Sprintf("metrics: %q already registered as a different gauge flavor", name))
		}
		return e.m
	}
	e := &entry{name: name, help: help, m: fresh, col: -1}
	switch fresh.(type) {
	case *Counter, dimension:
		e.col = len(r.series)
		r.series = append(r.series, e)
	case *Histogram:
		e.col = len(r.hists)
		r.hists = append(r.hists, e)
	}
	r.byName[name] = e
	return fresh
}

func isFuncGauge(m instrument) bool {
	_, ok := m.(*FuncGauge)
	return ok
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, new(Counter)).(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, new(Gauge)).(*Gauge)
}

// GaugeFunc registers (or re-points: last writer wins) a callback-backed
// gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *FuncGauge {
	g := r.register(name, help, new(FuncGauge)).(*FuncGauge)
	g.fn.Store(fn)
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, new(Histogram)).(*Histogram)
}

// checkName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* so exposition can never emit an invalid line.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			panic(fmt.Sprintf("metrics: invalid name %q", name))
		}
	}
}

// Snapshot returns every instrument's current value keyed by name,
// suitable for JSON encoding: int64 for counters, float64 for gauges,
// HistogramSnapshot for histograms, TopSnapshot for top-k dimensions.
func (r *Registry) Snapshot() map[string]any {
	entries := r.sortedEntries()
	out := make(map[string]any, len(entries))
	for _, e := range entries {
		out[e.name] = e.m.snapshotValue()
	}
	return out
}

// sortedEntries returns entries by name, for deterministic exposition.
func (r *Registry) sortedEntries() []*entry {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.byName))
	for _, e := range r.byName {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	return entries
}
