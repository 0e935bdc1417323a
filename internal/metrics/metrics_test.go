package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterHotPathDoesNotAllocate(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(2) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v times per op", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v times per op", n)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Add(1.25)
	g.Add(-0.75)
	if got := g.Value(); got != 4.0 {
		t.Fatalf("Value = %v, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		f *FuncGauge
		h *Histogram
		k *Sketch[string]
	)
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	k.Offer("x", 1)
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 || h.Quantile(0.5) != 0 || k.Total() != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Exact powers of two land in their own ≤-bucket.
	if got, want := bucketOf(1.0), -histMinExp; got != want {
		t.Errorf("bucketOf(1) = %d, want %d", got, want)
	}
	if upperBound(bucketOf(1.0)) != 1.0 {
		t.Errorf("upper bound of bucketOf(1) = %v, want 1", upperBound(bucketOf(1.0)))
	}
	// Values just above a power of two move to the next bucket.
	if bucketOf(1.0001) != bucketOf(1.0)+1 {
		t.Error("1.0001 should fall in the bucket above 1.0")
	}
	// Non-positive and subnormal-tiny values land in the first bucket.
	if bucketOf(0) != 0 || bucketOf(-3) != 0 || bucketOf(1e-300) != 0 {
		t.Error("tiny/non-positive values must land in bucket 0")
	}
	// Huge values overflow.
	if bucketOf(math.Ldexp(1, histMaxExp+3)) != histBuckets {
		t.Error("huge value must land in the overflow bucket")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform over (0, 1]: quantiles should be within a
	// bucket width (≤ 2× relative) of the true values.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.Sum < 499 || s.Sum > 502 {
		t.Errorf("Sum = %v, want ≈ 500.5", s.Sum)
	}
	checks := []struct {
		got, want float64
	}{{s.P50, 0.5}, {s.P95, 0.95}, {s.P99, 0.99}}
	for _, c := range checks {
		if c.got < c.want/2 || c.got > c.want*2 {
			t.Errorf("quantile = %v, want within 2x of %v", c.got, c.want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(float64(g+1) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 40000 {
		t.Fatalf("Count = %d, want 40000", s.Count)
	}
}

func TestRegistryIdempotentAndKindClash(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs_total", "requests")
	c2 := r.Counter("reqs_total", "ignored duplicate help")
	if c1 != c2 {
		t.Fatal("re-registering a counter must return the same instance")
	}
	h1 := r.Histogram("lat_seconds", "latency")
	if h2 := r.Histogram("lat_seconds", ""); h1 != h2 {
		t.Fatal("re-registering a histogram must return the same instance")
	}
	// GaugeFunc re-registration replaces the callback (last writer wins).
	r.GaugeFunc("depth", "", func() float64 { return 1 })
	g := r.GaugeFunc("depth", "", func() float64 { return 2 })
	if g.Value() != 2 {
		t.Fatal("GaugeFunc re-registration must replace the callback")
	}
	k1 := TopK[string](r, "hot_users", "", 8, FormatString)
	if k2 := TopK[string](r, "hot_users", "", 8, FormatString); k1 != k2 {
		t.Fatal("re-registering a top-k dimension must return the same instance")
	}
	for name, clash := range map[string]func(){
		"gauge over counter": func() { r.Gauge("reqs_total", "") },
		"counter over topk":  func() { r.Counter("hot_users", "") },
		"topk over counter":  func() { TopK[string](r, "reqs_total", "", 8, FormatString) },
		"topk over another key type": func() {
			TopK[uint32](r, "hot_users", "", 8, func(uint32) string { return "" })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: kind clash must panic", name)
				}
			}()
			clash()
		}()
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must be rejected", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mm_test_ops_total", "ops so far").Add(7)
	r.Gauge("mm_test_depth", "queue depth").Set(2.5)
	r.GaugeFunc("mm_test_live", "live items", func() float64 { return 3 })
	h := r.Histogram("mm_test_lat_seconds", "latency")
	h.Observe(0.001)
	h.Observe(0.002)
	h.Observe(0.004)
	r.Histogram("mm_test_empty_seconds", "no observations yet")
	TopK[string](r, "test_hot_keys", "weight by key", 8, FormatString).Offer("k", 3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP mm_test_ops_total ops so far",
		"# TYPE mm_test_ops_total counter",
		"mm_test_ops_total 7",
		"# TYPE mm_test_depth gauge",
		"mm_test_depth 2.5",
		"mm_test_live 3",
		"# TYPE mm_test_lat_seconds histogram",
		`mm_test_lat_seconds_bucket{le="+Inf"} 3`,
		"mm_test_lat_seconds_count 3",
		// A dimension exposes its total weight as a counter.
		"# HELP test_hot_keys weight by key",
		"# TYPE test_hot_keys counter",
		"test_hot_keys 3",
		// Empty histograms still expose their series.
		`mm_test_empty_seconds_bucket{le="+Inf"} 0`,
		"mm_test_empty_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Bucket lines must be cumulative and monotone.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "mm_test_lat_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscanSuffix(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("non-monotone cumulative buckets:\n%s", out)
		}
		last = n
	}
}

// fmtSscanSuffix parses the trailing integer of an exposition line.
func fmtSscanSuffix(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	v, err := json.Number(line[i+1:]).Int64()
	*n = v
	return 1, err
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(4)
	r.Gauge("g", "").Set(1.5)
	r.Histogram("h_seconds", "").Observe(0.5)
	TopK[string](r, "hot", "", 8, FormatString).Offer("k", 2)

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["c_total"].(float64) != 4 || decoded["g"].(float64) != 1.5 {
		t.Fatalf("snapshot = %v", decoded)
	}
	hist := decoded["h_seconds"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Fatalf("histogram snapshot = %v", hist)
	}
	hot := decoded["hot"].(map[string]any)
	if hot["total_weight"].(float64) != 2 || len(hot["entries"].([]any)) != 1 {
		t.Fatalf("top-k snapshot = %v", hot)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.000123)
		}
	})
}

// TestQuantileSingleBucketMonotone pins the interpolation contract when
// every observation lands in one log₂ bucket: quantiles interpolate
// linearly across that bucket and p50 ≤ p95 ≤ p99 holds.
func TestQuantileSingleBucketMonotone(t *testing.T) {
	var h Histogram
	// 0.3 lands in the (0.25, 0.5] bucket; all samples identical, so the
	// whole distribution occupies a single bucket.
	for i := 0; i < 1000; i++ {
		h.Observe(0.3)
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	lo, hi := 0.25, 0.5
	for q, v := range map[float64]float64{0.50: s.P50, 0.95: s.P95, 0.99: s.P99} {
		if v <= lo || v > hi {
			t.Fatalf("q%v=%v escapes the (%v,%v] bucket", q, v, lo, hi)
		}
		want := lo + (hi-lo)*q
		if diff := v - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("q%v=%v, want exact linear interpolation %v", q, v, want)
		}
	}
	// A single observation is the degenerate single-bucket case.
	var one Histogram
	one.Observe(0.3)
	s1 := one.Snapshot()
	if !(s1.P50 <= s1.P95 && s1.P95 <= s1.P99) {
		t.Fatalf("single-sample quantiles not monotone: %+v", s1)
	}
}

// TestQuantileMonotoneAcrossBuckets sweeps a multi-bucket distribution
// and requires the quantile function itself to be nondecreasing in q.
func TestQuantileMonotoneAcrossBuckets(t *testing.T) {
	var h Histogram
	for i := 1; i <= 2000; i++ {
		h.Observe(float64(i) / 500) // spans several buckets
	}
	prev := 0.0
	for q := 0.01; q < 1; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile(%v)=%v < quantile(prev)=%v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramExemplars(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(0.3, 0xabc)  // (0.25, 0.5]
	h.ObserveExemplar(0.4, 0xdef)  // same bucket, slower: replaces
	h.ObserveExemplar(0.26, 0x123) // same bucket, faster: kept out
	h.ObserveExemplar(3.0, 0x456)  // (2,4] bucket
	h.ObserveExemplar(5.0, 0)      // no trace id: counted, no exemplar

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d, want 5 (exemplar observes must count)", s.Count)
	}
	if len(s.Exemplars) != 2 {
		t.Fatalf("exemplars %+v, want 2 buckets", s.Exemplars)
	}
	first := s.Exemplars[0]
	if first.Value != 0.4 || first.Trace != "0000000000000def" {
		t.Fatalf("bucket exemplar %+v, want slowest (0.4, ...def)", first)
	}
	if first.LE != "0.5" {
		t.Fatalf("exemplar le %q, want 0.5", first.LE)
	}
	if s.Exemplars[1].Trace != "0000000000000456" {
		t.Fatalf("second exemplar %+v", s.Exemplars[1])
	}

	// Plain snapshots without exemplars must omit the field entirely.
	var plain Histogram
	plain.Observe(1)
	if ex := plain.Snapshot().Exemplars; ex != nil {
		t.Fatalf("plain histogram has exemplars %+v", ex)
	}

	// Overflow bucket renders +Inf.
	var of Histogram
	of.ObserveExemplar(1e10, 0x9)
	if got := of.Snapshot().Exemplars[0].LE; got != "+Inf" {
		t.Fatalf("overflow exemplar le %q", got)
	}

	// Nil histogram stays a no-op.
	var nilH *Histogram
	nilH.ObserveExemplar(1, 2)
}

func TestHistogramExemplarConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.ObserveExemplar(float64(i%7)+0.1, uint64(w*1000+i+1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 4000 {
		t.Fatalf("count %d", s.Count)
	}
	for _, ex := range s.Exemplars {
		if ex.Trace == "" || ex.Value <= 0 {
			t.Fatalf("bad exemplar %+v", ex)
		}
	}
}

func TestHistogramBucketDelta(t *testing.T) {
	h := NewRegistry().Histogram("t_seconds", "")
	h.Observe(0.001)
	h.Observe(0.001)
	before := h.bucketCounts()
	// Quantile over the delta of two samples sees only the observations
	// between them — the windowed-quantile building block.
	h.Observe(1.0)
	h.Observe(1.0)
	h.Observe(1.0)
	after := h.bucketCounts()
	var delta [numBuckets]int64
	var total int64
	for i := range after {
		delta[i] = after[i] - before[i]
		total += delta[i]
	}
	if total != 3 {
		t.Fatalf("delta total %d, want 3", total)
	}
	q := countsQuantile(&delta, 0.5)
	if q < 0.5 || q > 1.0 {
		t.Fatalf("windowed p50 %v should reflect only the 1.0s observations", q)
	}
	if got := countsQuantile(&before, 0.5); got > 0.01 {
		t.Fatalf("pre-window p50 %v should reflect only the 1ms observations", got)
	}
	var zero [numBuckets]int64
	if countsQuantile(&zero, 0.99) != 0 {
		t.Fatal("empty counts should report 0")
	}
	var nilH *Histogram
	if nilH.bucketCounts() != zero {
		t.Fatal("nil histogram should report zero counts")
	}
}

func TestBucketBound(t *testing.T) {
	if !math.IsInf(bucketBound(numBuckets-1), 1) {
		t.Fatal("overflow bucket bound should be +Inf")
	}
	if bucketBound(0) >= bucketBound(1) {
		t.Fatal("bounds should increase")
	}
}
