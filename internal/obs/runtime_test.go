package obs

import (
	"runtime/metrics"
	"testing"

	mm "mmprofile/internal/metrics"
)

func TestReadRuntimeStatsSane(t *testing.T) {
	reg := mm.NewRegistry()
	s := NewRuntimeSampler(reg)

	// Every figure read from runtime/metrics is sane, on the sample
	// NewRuntimeSampler takes and on a later SampleNow.
	for pass := 0; pass < 2; pass++ {
		snap := reg.Snapshot()
		for _, name := range []string{"mm_runtime_goroutines", "mm_runtime_total_memory_bytes", "mm_runtime_heap_goal_bytes"} {
			if v, ok := snap[name].(float64); !ok || v < 1 {
				t.Errorf("pass %d: %s = %v (%T), want >= 1", pass, name, snap[name], snap[name])
			}
		}
		for _, name := range []string{"mm_runtime_gc_pause_p99_seconds", "mm_runtime_sched_latency_p99_seconds"} {
			if v, ok := snap[name].(float64); !ok || v < 0 {
				t.Errorf("pass %d: %s = %v, want a non-negative quantile", pass, name, snap[name])
			}
		}
		s.SampleNow()
	}
}

func TestRuntimeSamplerProjectsGauges(t *testing.T) {
	reg := mm.NewRegistry()
	NewRuntimeSampler(reg)

	// NewRuntimeSampler registers the whole mm_runtime_* family and sets
	// it synchronously before returning.
	snap := reg.Snapshot()
	for _, g := range runtimeGauges {
		if _, ok := snap[g.name].(float64); !ok {
			t.Errorf("%s = %v (%T), want a registered gauge", g.name, snap[g.name], snap[g.name])
		}
	}
	if g, _ := snap["mm_runtime_goroutines"].(float64); g < 1 {
		t.Errorf("mm_runtime_goroutines = %v before any SampleNow, want >= 1", g)
	}
}

func TestRuntimeSamplerNilRegistry(t *testing.T) {
	NewRuntimeSampler(nil).SampleNow() // must not panic with no gauges
}

func TestHistQuantile(t *testing.T) {
	// 10 observations in [1,2), 90 in [2,3): p50 and p99 land in the
	// second bucket, p05 in the first.
	h := &metrics.Float64Histogram{
		Counts:  []uint64{10, 90},
		Buckets: []float64{1, 2, 3},
	}
	if got := histQuantile(h, 0.05); got != 1.5 {
		t.Errorf("p05 = %v, want 1.5", got)
	}
	if got := histQuantile(h, 0.50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := histQuantile(h, 0.99); got != 2.5 {
		t.Errorf("p99 = %v, want 2.5", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("nil hist = %v, want 0", got)
	}
	if got := histQuantile(&metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}, 0.5); got != 0 {
		t.Errorf("empty hist = %v, want 0", got)
	}
}
