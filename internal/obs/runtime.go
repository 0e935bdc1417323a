package obs

import (
	"runtime/metrics"

	mm "mmprofile/internal/metrics"
)

// runtimeGauges is the mm_runtime_* family: the numbers you want in front
// of you when the broker is slow and the question is "is it us or the
// runtime". Each gauge is one runtime/metrics sample, a count or a
// histogram's p99; a name the running Go does not know (KindBad) reads 0,
// so the sampler never panics across Go versions.
var runtimeGauges = [...]struct{ name, help, sample string }{
	{"mm_runtime_goroutines", "Live goroutine count.", "/sched/goroutines:goroutines"},
	{"mm_runtime_heap_live_bytes", "Heap memory occupied by live objects at last GC.", "/gc/heap/live:bytes"},
	{"mm_runtime_heap_goal_bytes", "Heap size target for the end of the current GC cycle.", "/gc/heap/goal:bytes"},
	{"mm_runtime_heap_allocs_objects", "Heap objects allocated since the process started, tiny ones included; its rise over a count of operations is allocations per operation.", heapAllocsSample},
	{"mm_runtime_total_memory_bytes", "All memory mapped by the Go runtime.", "/memory/classes/total:bytes"},
	{"mm_runtime_gc_cycles", "Completed GC cycles.", "/gc/cycles/total:gc-cycles"},
	{"mm_runtime_gc_pause_p99_seconds", "p99 stop-the-world GC pause.", "/gc/pauses:seconds"},
	{"mm_runtime_sched_latency_p99_seconds", "p99 goroutine scheduling latency.", "/sched/latencies:seconds"},
}

// The runtime counts tiny allocations (pointer-free objects under 16 B,
// several packed into one block) apart from heapAllocsSample, which sees
// only their blocks; mm_runtime_heap_allocs_objects adds them back, so it
// counts what MemStats.Mallocs and testing.AllocsPerRun count.
const (
	heapAllocsSample = "/gc/heap/allocs:objects"
	tinyAllocsSample = "/gc/heap/tiny/allocs:objects"
)

// RuntimeSampler writes runtime/metrics into a registry's mm_runtime_*
// gauges, once per SampleNow; it owns no goroutine (internal/server's tick
// calls it every second, and a flight-recorder dump once more).
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

// SampleNow reads runtime/metrics once and sets every gauge. Safe for
// concurrent use: each call reads into its own samples.
func (s *RuntimeSampler) SampleNow() {
	samples := make([]metrics.Sample, len(runtimeGauges)+1)
	for i, g := range runtimeGauges {
		samples[i].Name = g.sample
	}
	samples[len(runtimeGauges)].Name = tinyAllocsSample
	metrics.Read(samples)
	value := func(sm metrics.Sample) float64 {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			return float64(sm.Value.Uint64())
		case metrics.KindFloat64Histogram:
			return histQuantile(sm.Value.Float64Histogram(), 0.99)
		}
		return 0
	}
	for i, g := range runtimeGauges {
		v := value(samples[i])
		if g.sample == heapAllocsSample {
			v += value(samples[len(runtimeGauges)])
		}
		s.gauges[i].Set(v)
	}
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
