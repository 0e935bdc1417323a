package obs

import (
	"runtime/metrics"
	"sync"
	"time"

	mm "mmprofile/internal/metrics"
)

// The runtime/metrics samples the sampler projects. Names are looked up
// defensively (KindBad on older/newer runtimes just zeroes the stat) so
// the sampler never panics across Go versions.
const (
	smGoroutines  = "/sched/goroutines:goroutines"
	smHeapLive    = "/gc/heap/live:bytes"
	smHeapGoal    = "/gc/heap/goal:bytes"
	smTotalMemory = "/memory/classes/total:bytes"
	smGCCycles    = "/gc/cycles/total:gc-cycles"
	smGCPauses    = "/gc/pauses:seconds"
	smSchedLat    = "/sched/latencies:seconds"
)

// RuntimeStats is one projection of the Go runtime's own telemetry: the
// numbers you want in front of you when the broker is slow and the
// question is "is it us or the runtime".
type RuntimeStats struct {
	Goroutines        int64   `json:"goroutines"`
	HeapLiveBytes     uint64  `json:"heap_live_bytes"`
	HeapGoalBytes     uint64  `json:"heap_goal_bytes"`
	TotalMemoryBytes  uint64  `json:"total_memory_bytes"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseP50Seconds float64 `json:"gc_pause_p50_seconds"`
	GCPauseP99Seconds float64 `json:"gc_pause_p99_seconds"`
	SchedLatP99Secs   float64 `json:"sched_latency_p99_seconds"`
}

// ReadRuntimeStats samples runtime/metrics once.
func ReadRuntimeStats() RuntimeStats {
	samples := []metrics.Sample{
		{Name: smGoroutines},
		{Name: smHeapLive},
		{Name: smHeapGoal},
		{Name: smTotalMemory},
		{Name: smGCCycles},
		{Name: smGCPauses},
		{Name: smSchedLat},
	}
	metrics.Read(samples)
	var rs RuntimeStats
	for _, s := range samples {
		switch s.Name {
		case smGoroutines:
			rs.Goroutines = int64(sampleUint64(s))
		case smHeapLive:
			rs.HeapLiveBytes = sampleUint64(s)
		case smHeapGoal:
			rs.HeapGoalBytes = sampleUint64(s)
		case smTotalMemory:
			rs.TotalMemoryBytes = sampleUint64(s)
		case smGCCycles:
			rs.GCCycles = sampleUint64(s)
		case smGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				rs.GCPauseP50Seconds = histQuantile(h, 0.50)
				rs.GCPauseP99Seconds = histQuantile(h, 0.99)
			}
		case smSchedLat:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				rs.SchedLatP99Secs = histQuantile(s.Value.Float64Histogram(), 0.99)
			}
		}
	}
	return rs
}

func sampleUint64(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// histQuantile interpolates quantile q from a cumulative-count
// runtime/metrics histogram. Buckets are [Buckets[i], Buckets[i+1]) with
// Counts[i] observations; -Inf/+Inf bounds clamp to the adjacent finite
// edge.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if float64(seen) >= target && c > 0 {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || lo != lo { // -Inf underflow bucket
				lo = hi
			}
			if hi != hi || hi > 1e300 { // +Inf overflow bucket
				hi = lo
			}
			return (lo + hi) / 2
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// RuntimeSampler periodically projects ReadRuntimeStats into an
// internal/metrics registry as mm_runtime_* gauges and runs an optional
// per-tick hook (mmserver hangs the p99-over-SLO flight-recorder
// watermark off it).
type RuntimeSampler struct {
	onTick func(RuntimeStats)
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	gGoroutines *mm.Gauge
	gHeapLive   *mm.Gauge
	gHeapGoal   *mm.Gauge
	gTotalMem   *mm.Gauge
	gGCCycles   *mm.Gauge
	gGCPauseP99 *mm.Gauge
	gSchedP99   *mm.Gauge
}

// StartRuntimeSampler registers the mm_runtime_* gauges on reg (nil is
// fine — gauges become no-ops), takes an immediate sample so the gauges
// are live before the first tick, then samples every interval (default
// 5s) until Stop. onTick (optional) runs after each sample with the
// fresh stats.
func StartRuntimeSampler(reg *mm.Registry, interval time.Duration, onTick func(RuntimeStats)) *RuntimeSampler {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	s := &RuntimeSampler{
		onTick: onTick,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if reg != nil {
		s.gGoroutines = reg.Gauge("mm_runtime_goroutines", "Live goroutine count.")
		s.gHeapLive = reg.Gauge("mm_runtime_heap_live_bytes", "Heap memory occupied by live objects at last GC.")
		s.gHeapGoal = reg.Gauge("mm_runtime_heap_goal_bytes", "Heap size target for the end of the current GC cycle.")
		s.gTotalMem = reg.Gauge("mm_runtime_total_memory_bytes", "All memory mapped by the Go runtime.")
		s.gGCCycles = reg.Gauge("mm_runtime_gc_cycles", "Completed GC cycles.")
		s.gGCPauseP99 = reg.Gauge("mm_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause.")
		s.gSchedP99 = reg.Gauge("mm_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency.")
	}
	s.SampleNow()
	go s.loop(interval)
	return s
}

func (s *RuntimeSampler) loop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.SampleNow()
		}
	}
}

// SampleNow takes one sample synchronously (also the per-tick body);
// exported so tests and dump paths can refresh without waiting.
func (s *RuntimeSampler) SampleNow() RuntimeStats {
	rs := ReadRuntimeStats()
	s.gGoroutines.Set(float64(rs.Goroutines))
	s.gHeapLive.Set(float64(rs.HeapLiveBytes))
	s.gHeapGoal.Set(float64(rs.HeapGoalBytes))
	s.gTotalMem.Set(float64(rs.TotalMemoryBytes))
	s.gGCCycles.Set(float64(rs.GCCycles))
	s.gGCPauseP99.Set(rs.GCPauseP99Seconds)
	s.gSchedP99.Set(rs.SchedLatP99Secs)
	if s.onTick != nil {
		s.onTick(rs)
	}
	return rs
}

// Stop halts the sampler and waits for the loop to exit.
func (s *RuntimeSampler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
