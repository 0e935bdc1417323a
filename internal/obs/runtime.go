package obs

import (
	"runtime/metrics"

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

// runtimeGauges is the mm_runtime_* family: what of a RuntimeStats sample
// /metrics carries.
var runtimeGauges = [...]struct {
	name, help string
	value      func(RuntimeStats) float64
}{
	{"mm_runtime_goroutines", "Live goroutine count.", func(rs RuntimeStats) float64 { return float64(rs.Goroutines) }},
	{"mm_runtime_heap_live_bytes", "Heap memory occupied by live objects at last GC.", func(rs RuntimeStats) float64 { return float64(rs.HeapLiveBytes) }},
	{"mm_runtime_heap_goal_bytes", "Heap size target for the end of the current GC cycle.", func(rs RuntimeStats) float64 { return float64(rs.HeapGoalBytes) }},
	{"mm_runtime_total_memory_bytes", "All memory mapped by the Go runtime.", func(rs RuntimeStats) float64 { return float64(rs.TotalMemoryBytes) }},
	{"mm_runtime_gc_cycles", "Completed GC cycles.", func(rs RuntimeStats) float64 { return float64(rs.GCCycles) }},
	{"mm_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause.", func(rs RuntimeStats) float64 { return rs.GCPauseP99Seconds }},
	{"mm_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency.", func(rs RuntimeStats) float64 { return rs.SchedLatP99Secs }},
}

// RuntimeSampler projects ReadRuntimeStats into a registry's mm_runtime_*
// gauges, once per SampleNow; it owns no goroutine (internal/server's tick
// calls it every second).
type RuntimeSampler struct{ gauges [len(runtimeGauges)]*mm.Gauge }

// NewRuntimeSampler registers the gauges on reg (nil is fine — they become
// no-ops) and takes one sample, so they are live before the first tick.
func NewRuntimeSampler(reg *mm.Registry) *RuntimeSampler {
	s := &RuntimeSampler{}
	if reg != nil {
		for i, g := range runtimeGauges {
			s.gauges[i] = reg.Gauge(g.name, g.help)
		}
	}
	s.SampleNow()
	return s
}

// SampleNow takes one sample synchronously and returns it.
func (s *RuntimeSampler) SampleNow() RuntimeStats {
	rs := ReadRuntimeStats()
	for i, g := range runtimeGauges {
		s.gauges[i].Set(g.value(rs))
	}
	return rs
}
