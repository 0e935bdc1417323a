package store

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mmprofile/internal/faultfs"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
)

// benchDurableAppend measures the durable append path and reports the
// real fsync amplification from the metrics registry. The serial case is
// the old SyncEveryAppend behavior by construction (every append leads
// its own batch: 1 fsync per append); the parallel cases, each writer its
// own user, show group commit coalescing concurrent appenders onto shared
// fsyncs.
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

// BenchmarkCheckpoint measures one Checkpoint(1) over 4 000 users of ~5.5 KB
// in segments, perf's restart population, and reports the segment bytes it
// writes. In tail=400 the WAL holds 400 judgments spread uniformly over the
// users, so most records are carried clean; in all-dirty it holds eight
// judgments of every user, so every profile is decoded, replayed and
// marshalled again.
func BenchmarkCheckpoint(b *testing.B) {
	const users = 4000
	b.Run("tail=400", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		benchCheckpoint(b, users, 400, func(int) int { return rng.Intn(users) })
	})
	b.Run("all-dirty", func(b *testing.B) {
		benchCheckpoint(b, users, 8*users, func(j int) int { return j % users })
	})
}

// benchCheckpoint appends a tail of judgments, the j-th for user(j), before
// each timed Checkpoint(1).
func benchCheckpoint(b *testing.B, users, tail int, user func(j int) int) {
	dir := b.TempDir()
	checkpointedStore(b, dir, users, trainedProfile(b, 3))
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	pairs := make([]any, 0, 200)
	for i := 0; i < 100; i++ {
		pairs = append(pairs, fmt.Sprintf("tailterm%03d", i), 1.0+float64(i%5))
	}
	doc := vec(pairs...)
	var written int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < tail; j++ {
			if err := s.AppendFeedback(fmt.Sprintf("user-%05d", user(j)), doc, filter.Relevant); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		st, err := s.Checkpoint(1)
		if err != nil {
			b.Fatal(err)
		}
		written += st.Bytes
	}
	b.StopTimer()
	b.ReportMetric(float64(written)/float64(b.N), "B-written/op")
}
