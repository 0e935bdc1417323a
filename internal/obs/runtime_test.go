package obs

import (
	"runtime/metrics"
	"testing"

	mm "mmprofile/internal/metrics"
)

func TestReadRuntimeStatsSane(t *testing.T) {
	rs := ReadRuntimeStats()
	if rs.Goroutines < 1 {
		t.Errorf("Goroutines = %d, want >= 1", rs.Goroutines)
	}
	if rs.TotalMemoryBytes == 0 {
		t.Error("TotalMemoryBytes = 0")
	}
	if rs.HeapGoalBytes == 0 {
		t.Error("HeapGoalBytes = 0")
	}
	if rs.GCPauseP99Seconds < 0 || rs.SchedLatP99Secs < 0 {
		t.Errorf("negative quantile: %+v", rs)
	}
}

func TestRuntimeSamplerProjectsGauges(t *testing.T) {
	reg := mm.NewRegistry()
	s := NewRuntimeSampler(reg)

	// NewRuntimeSampler samples synchronously before returning.
	snap := reg.Snapshot()
	g, ok := snap["mm_runtime_goroutines"].(float64)
	if !ok || g < 1 {
		t.Errorf("mm_runtime_goroutines = %v (%T)", snap["mm_runtime_goroutines"], snap["mm_runtime_goroutines"])
	}
	if v, ok := snap["mm_runtime_total_memory_bytes"].(float64); !ok || v <= 0 {
		t.Errorf("mm_runtime_total_memory_bytes = %v", snap["mm_runtime_total_memory_bytes"])
	}
	if rs := s.SampleNow(); rs.Goroutines < 1 {
		t.Errorf("SampleNow returned %+v", rs)
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
