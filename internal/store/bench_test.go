package store

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
)

// benchDurableAppend measures the durable append path and reports the
// real fsync amplification from the metrics registry. The serial case is
// the old SyncEveryAppend behavior by construction (every append leads
// its own batch: 1 fsync per append); the parallel cases show group
// commit coalescing concurrent appenders onto shared fsyncs.
func benchDurableAppend(b *testing.B, workers int) {
	reg := metrics.NewRegistry()
	s, err := Open(b.TempDir(), Options{Durable: true, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	doc := vec("cat", 1.0, "dog", 0.5)

	var id atomic.Int64
	b.ResetTimer()
	if workers <= 1 {
		for i := 0; i < b.N; i++ {
			if err := s.AppendFeedback("u0", doc, filter.Relevant); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		b.SetParallelism(workers)
		b.RunParallel(func(pb *testing.PB) {
			user := fmt.Sprintf("u%d", id.Add(1))
			for pb.Next() {
				if err := s.AppendFeedback(user, doc, filter.Relevant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.StopTimer()

	snap := reg.Snapshot()
	fsyncs := snap["mm_store_fsyncs_total"].(int64)
	appends := snap["mm_store_appends_total"].(int64)
	if appends > 0 {
		b.ReportMetric(float64(fsyncs)/float64(appends), "fsyncs/append")
	}
}

func BenchmarkDurableAppend(b *testing.B) {
	for _, w := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchDurableAppend(b, w) })
	}
}

// benchDurableAppendLanes measures the sharded-journal durable append path:
// 64 concurrent writers spread across user ids (and therefore across WAL
// lanes), with the lane count swept. Reports the same fsyncs/append
// amplification metric as benchDurableAppend so the two tables compare
// directly.
func benchDurableAppendLanes(b *testing.B, lanes, workers int) {
	reg := metrics.NewRegistry()
	s, err := Open(b.TempDir(), Options{Durable: true, Lanes: lanes, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	doc := vec("cat", 1.0, "dog", 0.5)

	var id atomic.Int64
	b.ResetTimer()
	b.SetParallelism(workers)
	b.RunParallel(func(pb *testing.PB) {
		// Distinct users per goroutine so writers spread over every lane.
		user := fmt.Sprintf("u%d", id.Add(1))
		for pb.Next() {
			if err := s.AppendFeedback(user, doc, filter.Relevant); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()

	snap := reg.Snapshot()
	fsyncs := snap["mm_store_fsyncs_total"].(int64)
	appends := snap["mm_store_appends_total"].(int64)
	if appends > 0 {
		b.ReportMetric(float64(fsyncs)/float64(appends), "fsyncs/append")
	}
}

// BenchmarkLazyBoot measures a lazy boot's store half — Open, RestoredUsers,
// Close — over 4 000 users of ~6 KB in segments, the population of perf's
// restart workload, and reports the segment bytes it reads.
func BenchmarkLazyBoot(b *testing.B) {
	const users = 4000
	dir := b.TempDir()
	checkpointedStore(b, dir, users, trainedProfile(b, 3))
	cfs := &countingFS{FS: faultfs.OS()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{FS: cfs})
		if err != nil {
			b.Fatal(err)
		}
		if names, err := s.RestoredUsers(); err != nil || len(names) != users {
			b.Fatalf("RestoredUsers: %d users, %v", len(names), err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cfs.seg.Load())/float64(b.N), "seg-B/op")
}

func BenchmarkDurableAppendLanes(b *testing.B) {
	for _, lanes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) { benchDurableAppendLanes(b, lanes, 64) })
	}
}
