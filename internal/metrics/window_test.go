package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var ringBase = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

// TestWindowRatesInjectedClock drives the ring with an explicit clock and
// checks deltas and rates over spans shorter and longer than the history.
func TestWindowRatesInjectedClock(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	// 61 ticks, 1s apart, counter grows by 10 per tick.
	for i := 0; i <= 60; i++ {
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
		c.Add(10)
	}
	for _, tc := range []struct {
		span  time.Duration
		delta float64
	}{
		{time.Second, 10},
		{10 * time.Second, 100},
		{60 * time.Second, 600},
	} {
		d, actual, ok := reg.Delta("c", tc.span)
		if !ok || d != tc.delta {
			t.Fatalf("delta over %v: got %v (ok=%v), want %v", tc.span, d, ok, tc.delta)
		}
		if actual != tc.span {
			t.Fatalf("actual span over %v: got %v", tc.span, actual)
		}
		r, ok := reg.Rate("c", tc.span)
		if !ok || r != 10 {
			t.Fatalf("rate over %v: got %v (ok=%v), want 10", tc.span, r, ok)
		}
	}
	// Asking beyond the retained history falls back to the oldest row.
	if _, actual, ok := reg.Delta("c", time.Hour); !ok || actual != 60*time.Second {
		t.Fatalf("fallback span: got %v", actual)
	}
	if _, _, ok := reg.Delta("nope", time.Second); ok {
		t.Fatal("unknown counter should not be ok")
	}
}

// TestWindowRingWraps fills the ring past capacity and checks old rows
// are really gone.
func TestWindowRingWraps(t *testing.T) {
	reg := NewRegistry()
	reg.ring.rows = make([]ringRow, 4) // a short ring, so ten ticks lap it
	c := reg.Counter("c", "")
	for i := 0; i < 10; i++ {
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
		c.Inc()
	}
	// Ring of 4 keeps ticks 6..9: the widest delta is 9-6 over 3s.
	d, actual, ok := reg.Delta("c", time.Hour)
	if !ok || d != 3 || actual != 3*time.Second {
		t.Fatalf("wrapped delta: got %v over %v (ok=%v)", d, actual, ok)
	}
	pts := reg.Series("c", 0)
	if len(pts) != 4 || pts[0].Value != 6 || pts[3].Value != 9 {
		t.Fatalf("series after wrap: %v", pts)
	}
}

// TestWindowQuantileDelta checks that windowed quantiles see only the
// observations inside the span.
func TestWindowQuantileDelta(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "")
	// 60 ticks of fast observations, then 10 ticks of slow ones.
	for i := 0; i < 60; i++ {
		h.Observe(0.001)
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
	}
	for i := 60; i < 70; i++ {
		h.Observe(1.0)
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
	}
	p99short, n, ok := reg.Quantile("lat_seconds", 9*time.Second, 0.99)
	if !ok || n != 9 {
		t.Fatalf("short quantile: n=%d ok=%v", n, ok)
	}
	if p99short < 0.5 {
		t.Fatalf("short-window p99 %v should only see the slow observations", p99short)
	}
	// The cumulative histogram is still dominated by the fast phase.
	if all := h.Quantile(0.5); all > 0.01 {
		t.Fatalf("cumulative p50 %v should still be fast", all)
	}
}

// TestBurnRule exercises the multi-window rule: a short burst alone must
// not fire, sustained badness across both windows must.
func TestBurnRule(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "")
	rule := BurnRule{Hist: "lat_seconds", Limit: 0.1, Objective: 0.99, Short: 10 * time.Second, Long: 60 * time.Second}
	tick := 0
	step := func(v float64, times int) {
		for i := 0; i < times; i++ {
			h.Observe(v)
			reg.Tick(ringBase.Add(time.Duration(tick) * time.Second))
			tick++
		}
	}
	// Healthy minute: nothing burns.
	step(0.001, 60)
	if st := reg.Burn(rule); st.Breached || st.LongBurn != 0 {
		t.Fatalf("healthy window breached: %+v", st)
	}
	// A short 5s burst of slowness: short window burns hot, but the long
	// window (5 bad of 60) burns 5/60/0.01 ≈ 8.3 — still over. Use a
	// 2-sample burst instead: long bad fraction 2/60 ≈ 3.3% → burn 3.3;
	// to prove the sustain requirement we need Factor above the blip's
	// long burn but below its short burn.
	blipRule := rule
	blipRule.Factor = 10 // short blip: shortBurn ≈ 20, longBurn ≈ 3.3
	step(1.0, 2)
	st := reg.Burn(blipRule)
	if st.ShortBurn < 10 {
		t.Fatalf("blip should burn the short window hot: %+v", st)
	}
	if st.Breached {
		t.Fatalf("short blip alone breached the multi-window rule: %+v", st)
	}
	// Sustained badness: a full minute of slow observations fires.
	step(1.0, 60)
	st = reg.Burn(rule)
	if !st.Breached || st.ShortCount == 0 {
		t.Fatalf("sustained badness did not breach: %+v", st)
	}
}

// TestWindowBadFraction pins the interpolation behavior.
func TestWindowBadFraction(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "")
	reg.Tick(ringBase)
	for i := 0; i < 10; i++ {
		h.Observe(0.001) // fast
	}
	for i := 0; i < 10; i++ {
		h.Observe(10.0) // slow, well above limit
	}
	reg.Tick(ringBase.Add(time.Second))
	frac, n, ok := reg.BadFraction("lat_seconds", time.Second, 0.1)
	if !ok || n != 20 {
		t.Fatalf("bad fraction: n=%d ok=%v", n, ok)
	}
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("bad fraction %v, want ≈0.5", frac)
	}
}

// TestWindowSnapshot checks the /tsz projection shape: counters and top-k
// totals side by side, histograms with one entry per standard span, gauges
// absent, and a never-ticked registry disabled.
func TestWindowSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "")
	c := reg.Counter("c", "")
	hot := TopK[string](reg, "hot", "", 8, FormatString)
	reg.Gauge("g", "").Set(1)
	if snap := reg.Window(0); snap.Enabled || snap.Samples != 0 || snap.Counters != nil {
		t.Fatalf("never-ticked registry: %+v", snap)
	}
	for i := 0; i < 5; i++ {
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
		c.Inc()
		hot.Offer("k", 2)
		h.Observe(0.01)
	}
	snap := reg.Window(3)
	if !snap.Enabled || snap.Samples != 5 || snap.IntervalSeconds != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "c" || snap.Counters[0].Value != 4 {
		t.Fatalf("counters: %+v", snap.Counters)
	}
	if d := snap.Counters[1]; d.Name != "hot" || d.Value != 8 || d.Rates["1s"] != 2 {
		t.Fatalf("top-k total: %+v", d)
	}
	if len(snap.Counters[0].Serie) != 3 {
		t.Fatalf("series should be capped at 3: %+v", snap.Counters[0].Serie)
	}
	if len(snap.Histograms) != 1 || len(snap.Histograms[0].Windows) != 3 {
		t.Fatalf("histograms: %+v", snap.Histograms)
	}
}

// TestLateRegistration is the case a window with its own sign-up list
// could not see: an instrument registered after the first Tick appears in
// Window from its next tick, has no rate until it has two samples, and
// reads spanning older, shorter rows report !ok instead of panicking.
func TestLateRegistration(t *testing.T) {
	reg := NewRegistry()
	early := reg.Counter("early_total", "")
	for i := 0; i < 3; i++ {
		early.Inc()
		reg.Tick(ringBase.Add(time.Duration(i) * time.Second))
	}
	late := reg.Counter("late_total", "")
	lateHist := reg.Histogram("late_seconds", "")
	names := func() map[string]CounterWindow {
		out := map[string]CounterWindow{}
		for _, c := range reg.Window(0).Counters {
			out[c.Name] = c
		}
		return out
	}
	if _, ok := names()["late_total"]; ok {
		t.Fatal("late counter listed before any tick sampled it")
	}
	if _, ok := reg.Rate("late_total", time.Second); ok {
		t.Fatal("late counter has a rate with no samples")
	}
	if pts := reg.Series("late_total", 0); len(pts) != 0 {
		t.Fatalf("late series before its first tick: %v", pts)
	}

	late.Add(5)
	lateHist.Observe(0.5)
	reg.Tick(ringBase.Add(3 * time.Second))
	cw, ok := names()["late_total"]
	if !ok || cw.Value != 5 || len(cw.Serie) != 1 || len(cw.Rates) != 0 {
		t.Fatalf("late counter after one sample: %+v (listed %v)", cw, ok)
	}
	if _, _, ok := reg.Quantile("late_seconds", time.Second, 0.5); ok {
		t.Fatal("late histogram has a windowed quantile with one sample")
	}
	if hs := reg.Window(0).Histograms; len(hs) != 1 || hs[0].Windows[0].Count != 0 {
		t.Fatalf("late histogram after one sample: %+v", hs)
	}

	late.Add(5)
	lateHist.Observe(0.5)
	reg.Tick(ringBase.Add(4 * time.Second))
	if r, ok := reg.Rate("late_total", time.Second); !ok || r != 5 {
		t.Fatalf("late counter 1s rate after two samples: %v %v", r, ok)
	}
	if _, n, ok := reg.Quantile("late_seconds", time.Second, 0.5); !ok || n != 1 {
		t.Fatalf("late histogram 1s quantile after two samples: n=%d ok=%v", n, ok)
	}
	// A 10s span reaches back to rows written before the instruments
	// existed: no answer, and no index out of range.
	if _, ok := reg.Rate("late_total", 10*time.Second); ok {
		t.Fatal("rate across rows that predate the counter should not be ok")
	}
	if _, _, ok := reg.BadFraction("late_seconds", 10*time.Second, 0.1); ok {
		t.Fatal("bad fraction across rows that predate the histogram should not be ok")
	}
	if r, ok := reg.Rate("early_total", 10*time.Second); !ok || r != 0.5 { // 1 → 3 over 4s
		t.Fatalf("early counter 10s rate: %v %v", r, ok)
	}
	if len(reg.Series("late_total", 0)) != 2 || len(reg.Series("early_total", 0)) != 5 {
		t.Fatalf("series lengths: late %d early %d", len(reg.Series("late_total", 0)), len(reg.Series("early_total", 0)))
	}
}

// TestTickConcurrent is the -race stress for the ring: writers hammer a
// counter, a histogram and a dimension and keep registering new
// instruments while one goroutine ticks and others read every view. The
// counter's final series value must reconcile with what was added.
func TestTickConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "")
	hot := TopK[string](reg, "hot", "", 8, FormatString)
	const writers, perWriter = 4, 5000
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(0.001)
				hot.Offer("k", 1)
				if i%500 == 0 {
					reg.Counter(fmt.Sprintf("late_%d_%d_total", w, i), "").Inc()
					reg.Histogram(fmt.Sprintf("late_%d_%d_seconds", w, i), "").Observe(1)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
					reg.Window(10)
					reg.Rate("hot", time.Second)
					reg.Quantile("h_seconds", time.Minute, 0.99)
					reg.Burn(BurnRule{Hist: "h_seconds", Limit: 0.1, Objective: 0.99, Short: time.Second, Long: time.Minute})
					reg.Tops(3)
					reg.Snapshot()
				}
			}
		}()
	}
	reading.Add(1)
	go func() {
		defer reading.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				reg.Tick(ringBase.Add(time.Duration(i) * time.Millisecond))
			}
		}
	}()
	writing.Wait()
	close(stop)
	reading.Wait()

	reg.Tick(ringBase.Add(time.Hour))
	pts := reg.Series("c_total", 1)
	if len(pts) != 1 || pts[0].Value != writers*perWriter {
		t.Fatalf("final sample of c_total = %v, want %d", pts, writers*perWriter)
	}
	if got := len(reg.Window(0).Counters); got != 2+writers*perWriter/500 {
		t.Fatalf("ring lists %d series after the late registrations, want %d", got, 2+writers*perWriter/500)
	}
}
