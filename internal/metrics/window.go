package metrics

import (
	"sync"
	"time"
)

// ringRows is how many ticks of history a registry keeps. With mmserver's
// 1s sampler interval, 120 covers the 60s long window twice over.
const ringRows = 120

// ring is the registry's own history: a fixed-size ring of per-tick
// samples. Every Tick samples each counter and top-k total the registry
// holds (as a float64, monotone) and each histogram (its full bucket-count
// array), so rates, deltas, and quantiles can be asked over any span the
// ring still covers — "deliveries/s over the last 10s", "p99 match latency
// over the last minute" — without the instruments themselves keeping
// history. Gauges are not sampled: a FuncGauge's callback takes its
// owner's locks, and Tick must never wait on the publish path.
//
// Spans are measured backwards from the newest sample, not from the wall
// clock, which makes reads deterministic under an injected test clock and
// correct when ticks arrive late. Ring rows are allocated once on the
// first lap and reused forever: steady-state Tick allocates nothing. A row
// is as wide as the registry was when it was written, so an instrument
// registered later is simply missing from older rows and every read
// bounds-checks its column.
//
// Tick is meant to be driven from one goroutine (mmserver's sampler
// hook); reads may come from any goroutine.
type ring struct {
	mu    sync.Mutex
	rows  []ringRow // nil until the first Tick
	next  int       // rows[next] is written by the next Tick
	count int       // rows populated (≤ len(rows))
}

type ringRow struct {
	at   time.Time
	vals []float64           // by entry.col over Registry.series
	hb   [][numBuckets]int64 // by entry.col over Registry.hists
}

// Tick samples every counter, top-k total and histogram registered so
// far, stamping the row with now.
func (r *Registry) Tick(now time.Time) {
	r.mu.RLock()
	series, hists := r.series, r.hists
	r.mu.RUnlock()
	w := &r.ring
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rows == nil {
		w.rows = make([]ringRow, ringRows)
	}
	row := &w.rows[w.next]
	row.at = now
	if cap(row.vals) < len(series) {
		row.vals = make([]float64, len(series))
	}
	row.vals = row.vals[:len(series)]
	for i, e := range series {
		switch m := e.m.(type) {
		case *Counter:
			row.vals[i] = float64(m.Value())
		case dimension:
			row.vals[i] = m.Total()
		}
	}
	if cap(row.hb) < len(hists) {
		row.hb = make([][numBuckets]int64, len(hists))
	}
	row.hb = row.hb[:len(hists)]
	for i, e := range hists {
		row.hb[i] = e.m.(*Histogram).bucketCounts()
	}
	w.next = (w.next + 1) % len(w.rows)
	if w.count < len(w.rows) {
		w.count++
	}
}

// rowAt returns the i-th most recent row (0 = newest). Caller holds w.mu
// and has checked i < w.count.
func (w *ring) rowAt(i int) *ringRow {
	n := len(w.rows)
	return &w.rows[((w.next-1-i)%n+n)%n]
}

// baseRow locates the newest row at least span older than the newest
// sample (falling back to the oldest row the ring holds), the comparison
// point for every windowed delta. Caller holds w.mu. Returns nil when
// fewer than two rows exist.
func (w *ring) baseRow(span time.Duration) (newest, base *ringRow) {
	if w.count < 2 {
		return nil, nil
	}
	newest = w.rowAt(0)
	cutoff := newest.at.Add(-span)
	for i := 1; i < w.count; i++ {
		r := w.rowAt(i)
		base = r
		if !r.at.After(cutoff) {
			break
		}
	}
	return newest, base
}

// column finds name's ring column: among counters and top-k totals, or
// among histograms when hist is set. -1 when name is not registered as
// that kind.
func (r *Registry) column(name string, hist bool) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.byName[name]
	if e == nil {
		return -1
	}
	if _, isHist := e.m.(*Histogram); isHist != hist {
		return -1
	}
	return e.col
}

// Delta returns how much counter name grew over the trailing span (newest
// sample minus the base row) and the actual span between those samples.
// ok is false when name is not a counter or top-k dimension, or it has
// fewer than two samples that far apart (never ticked, or registered after
// the base row was written).
func (r *Registry) Delta(name string, span time.Duration) (delta float64, actual time.Duration, ok bool) {
	i := r.column(name, false)
	if i < 0 {
		return 0, 0, false
	}
	w := &r.ring
	w.mu.Lock()
	defer w.mu.Unlock()
	newest, base := w.baseRow(span)
	if newest == nil || i >= len(newest.vals) || i >= len(base.vals) {
		return 0, 0, false
	}
	return newest.vals[i] - base.vals[i], newest.at.Sub(base.at), true
}

// Rate returns counter name's growth per second over the trailing span.
func (r *Registry) Rate(name string, span time.Duration) (perSec float64, ok bool) {
	d, actual, ok := r.Delta(name, span)
	if !ok || actual <= 0 {
		return 0, false
	}
	return d / actual.Seconds(), true
}

// histDelta computes the bucket-count delta for histogram column i over
// span. Caller holds w.mu.
func (w *ring) histDelta(i int, span time.Duration) (delta [numBuckets]int64, total int64, ok bool) {
	newest, base := w.baseRow(span)
	if newest == nil || i >= len(newest.hb) || i >= len(base.hb) {
		return delta, 0, false
	}
	for b := range delta {
		delta[b] = newest.hb[i][b] - base.hb[i][b]
		total += delta[b]
	}
	return delta, total, true
}

// Quantile returns the interpolated q-quantile of histogram name over
// just the observations recorded in the trailing span, plus how many
// observations that window held. ok is false when the histogram is
// unknown, fewer than two ticks exist, or the window saw no observations.
func (r *Registry) Quantile(name string, span time.Duration, q float64) (v float64, n int64, ok bool) {
	i := r.column(name, true)
	if i < 0 {
		return 0, 0, false
	}
	w := &r.ring
	w.mu.Lock()
	defer w.mu.Unlock()
	delta, total, ok := w.histDelta(i, span)
	if !ok || total <= 0 {
		return 0, total, false
	}
	return countsQuantile(&delta, q), total, true
}

// BadFraction returns the fraction of histogram name's observations in
// the trailing span whose value exceeded limit, interpolating inside the
// boundary bucket (observations in the overflow bucket always count as
// bad — its lower bound, ~12 days, exceeds any realistic SLO).
func (r *Registry) BadFraction(name string, span time.Duration, limit float64) (frac float64, n int64, ok bool) {
	i := r.column(name, true)
	if i < 0 {
		return 0, 0, false
	}
	w := &r.ring
	w.mu.Lock()
	defer w.mu.Unlock()
	delta, total, ok := w.histDelta(i, span)
	if !ok || total <= 0 {
		return 0, total, false
	}
	var bad float64
	for b, cnt := range delta {
		if cnt == 0 {
			continue
		}
		lo := 0.0
		if b > 0 {
			lo = bucketBound(b - 1)
		}
		hi := bucketBound(b)
		switch {
		case lo >= limit:
			bad += float64(cnt) // entire bucket above the limit
		case hi > limit && b < numBuckets-1:
			// Boundary bucket: distribute observations uniformly.
			bad += float64(cnt) * (hi - limit) / (hi - lo)
		case b == numBuckets-1:
			bad += float64(cnt)
		}
	}
	return bad / float64(total), total, true
}

// Point is one sampled value in a counter's series.
type Point struct {
	UnixMS int64   `json:"t_unix_ms"`
	Value  float64 `json:"v"`
}

// Series returns up to max (≤ 0 means all) of counter name's sampled
// values, oldest first.
func (r *Registry) Series(name string, max int) []Point {
	i := r.column(name, false)
	if i < 0 {
		return nil
	}
	w := &r.ring
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.count
	if max > 0 && n > max {
		n = max
	}
	out := make([]Point, 0, n)
	for j := n - 1; j >= 0; j-- {
		row := w.rowAt(j)
		if i >= len(row.vals) {
			continue
		}
		out = append(out, Point{UnixMS: row.at.UnixMilli(), Value: row.vals[i]})
	}
	return out
}

// BurnRule is a multi-window latency-SLO alerting rule. The objective
// "fraction Objective of observations complete under Limit seconds"
// defines an error budget of (1 − Objective); the burn rate of a window
// is its observed bad fraction divided by that budget (burn 1.0 = exactly
// spending the budget). The rule fires only when BOTH the short and the
// long window burn at ≥ Factor — the short window proves the problem is
// happening now (a stale tail can't trip it), the long window proves it
// is sustained (a single slow sample can't trip it).
type BurnRule struct {
	Hist      string        // histogram name
	Limit     float64       // SLO latency bound, seconds
	Objective float64       // e.g. 0.99: target fraction under Limit
	Short     time.Duration // fast window, e.g. 10s
	Long      time.Duration // sustain window, e.g. 60s
	Factor    float64       // burn-rate trigger threshold; 0 means 1.0
}

// BurnStatus reports one evaluation of a BurnRule.
type BurnStatus struct {
	Breached   bool    `json:"breached"`
	ShortBurn  float64 `json:"short_burn"`
	LongBurn   float64 `json:"long_burn"`
	ShortCount int64   `json:"short_count"`
	LongCount  int64   `json:"long_count"`
}

// Burn evaluates rule against the ring's current history.
func (r *Registry) Burn(rule BurnRule) BurnStatus {
	var st BurnStatus
	if rule.Limit <= 0 {
		return st
	}
	budget := 1 - rule.Objective
	if budget <= 0 {
		return st
	}
	factor := rule.Factor
	if factor <= 0 {
		factor = 1
	}
	sf, sn, sok := r.BadFraction(rule.Hist, rule.Short, rule.Limit)
	lf, ln, lok := r.BadFraction(rule.Hist, rule.Long, rule.Limit)
	st.ShortCount, st.LongCount = sn, ln
	if sok {
		st.ShortBurn = sf / budget
	}
	if lok {
		st.LongBurn = lf / budget
	}
	st.Breached = sok && lok && sn > 0 &&
		st.ShortBurn >= factor && st.LongBurn >= factor
	return st
}

// CounterWindow is one counter's /tsz projection.
type CounterWindow struct {
	Name  string             `json:"name"`
	Value float64            `json:"value"`
	Rates map[string]float64 `json:"rates_per_second"`
	Serie []Point            `json:"series,omitempty"`
}

// HistSpan is one histogram's stats over one span.
type HistSpan struct {
	Span  string  `json:"span"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// HistWindow is one histogram's /tsz projection.
type HistWindow struct {
	Name    string     `json:"name"`
	Windows []HistSpan `json:"windows"`
}

// WindowSnapshot is the full /tsz payload.
type WindowSnapshot struct {
	Enabled         bool            `json:"enabled"`
	IntervalSeconds float64         `json:"interval_seconds,omitempty"`
	Samples         int             `json:"samples"`
	Counters        []CounterWindow `json:"counters,omitempty"`
	Histograms      []HistWindow    `json:"histograms,omitempty"`
}

// StandardSpans are the windows every rate/quantile is reported over.
var StandardSpans = []time.Duration{time.Second, 10 * time.Second, 60 * time.Second}

// Window projects the whole ring for /tsz and the flight recorder: every
// counter and top-k total the newest row sampled, with its standard-span
// rates and (up to seriesMax points of) raw series, and every histogram
// with windowed p50/p99. A registry that was never ticked reports
// Enabled false.
func (r *Registry) Window(seriesMax int) WindowSnapshot {
	w := &r.ring
	w.mu.Lock()
	if w.count == 0 {
		w.mu.Unlock()
		return WindowSnapshot{}
	}
	newest := w.rowAt(0)
	nSeries, nHists := len(newest.vals), len(newest.hb)
	samples := w.count
	var interval float64
	if w.count >= 2 {
		interval = newest.at.Sub(w.rowAt(1).at).Seconds()
	}
	w.mu.Unlock()

	snap := WindowSnapshot{Enabled: true, Samples: samples, IntervalSeconds: interval}
	for _, e := range r.sortedEntries() {
		_, isHist := e.m.(*Histogram)
		switch {
		case isHist && e.col < nHists:
			hw := HistWindow{Name: e.name}
			for _, span := range StandardSpans {
				hs := HistSpan{Span: span.String()}
				if p50, n, ok := r.Quantile(e.name, span, 0.50); ok {
					hs.P50, hs.Count = p50, n
				}
				if p99, _, ok := r.Quantile(e.name, span, 0.99); ok {
					hs.P99 = p99
				}
				hw.Windows = append(hw.Windows, hs)
			}
			snap.Histograms = append(snap.Histograms, hw)
		case !isHist && e.col >= 0 && e.col < nSeries: // gauges have no column
			cw := CounterWindow{Name: e.name, Rates: make(map[string]float64, len(StandardSpans))}
			if pts := r.Series(e.name, seriesMax); len(pts) > 0 {
				cw.Value = pts[len(pts)-1].Value
				cw.Serie = pts
			}
			for _, span := range StandardSpans {
				if rate, ok := r.Rate(e.name, span); ok {
					cw.Rates[span.String()] = rate
				}
			}
			snap.Counters = append(snap.Counters, cw)
		}
	}
	return snap
}
