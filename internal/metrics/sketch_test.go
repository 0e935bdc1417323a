package metrics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSpaceSavingErrorBound drives adversarial Zipf streams through a
// small sketch and checks the space-saving invariants against the exact
// counts: every reported count overestimates by at most its recorded err,
// and err never exceeds W/capacity.
func TestSpaceSavingErrorBound(t *testing.T) {
	for _, zs := range []float64{1.01, 1.3, 2.0} {
		t.Run(fmt.Sprintf("zipf_s=%v", zs), func(t *testing.T) {
			const capacity = 64
			sk := TopK[string](NewRegistry(), "test", "", capacity, FormatString)
			rng := rand.New(rand.NewSource(42))
			zipf := rand.NewZipf(rng, zs, 1, 100_000)
			truth := make(map[string]float64)
			var w float64
			for i := 0; i < 200_000; i++ {
				key := fmt.Sprintf("k%d", zipf.Uint64())
				// Adversarial rotation: every 1000th offer goes to a
				// never-repeated key, forcing constant evictions.
				if i%1000 == 999 {
					key = fmt.Sprintf("cold-%d", i)
				}
				weight := float64(1 + i%3)
				sk.Offer(key, weight)
				truth[key] += weight
				w += weight
			}
			snap := sk.Snapshot(0)
			if snap.Total != w {
				t.Fatalf("total weight: got %v want %v", snap.Total, w)
			}
			eps := w / capacity
			if snap.Epsilon != eps {
				t.Fatalf("epsilon: got %v want %v", snap.Epsilon, eps)
			}
			if snap.Tracked != capacity {
				t.Fatalf("tracked: got %d want %d (stream has far more keys)", snap.Tracked, capacity)
			}
			for _, e := range snap.Entries {
				tr := truth[e.Key]
				if e.Count < tr {
					t.Errorf("key %s: count %v underestimates true %v", e.Key, e.Count, tr)
				}
				if e.Count-tr > e.Err {
					t.Errorf("key %s: overestimate %v exceeds recorded err %v", e.Key, e.Count-tr, e.Err)
				}
				if e.Err > eps {
					t.Errorf("key %s: err %v exceeds epsilon %v", e.Key, e.Err, eps)
				}
			}
			// Guarantee: any key whose true weight exceeds W/C must be
			// tracked (it can never have been the minimum when evicted).
			tracked := make(map[string]bool, len(snap.Entries))
			for _, e := range snap.Entries {
				tracked[e.Key] = true
			}
			for key, tr := range truth {
				if tr > eps && !tracked[key] {
					t.Errorf("key %s: true weight %v > epsilon %v but not tracked", key, tr, eps)
				}
			}
		})
	}
}

// TestSnapshotOrderAndK pins the snapshot contract: descending count,
// key tiebreak, k-truncation.
func TestSnapshotOrderAndK(t *testing.T) {
	sk := TopK[string](NewRegistry(), "test", "", 8, FormatString)
	sk.Offer("b", 5)
	sk.Offer("a", 5)
	sk.Offer("c", 9)
	snap := sk.Snapshot(2)
	if len(snap.Entries) != 2 {
		t.Fatalf("k=2 returned %d entries", len(snap.Entries))
	}
	if snap.Entries[0].Key != "c" || snap.Entries[1].Key != "a" {
		t.Fatalf("order: got %v", snap.Entries)
	}
	if snap.Tracked != 3 {
		t.Fatalf("tracked: got %d want 3", snap.Tracked)
	}
}

// TestConcurrentOfferSnapshot is the -race stress: writers hammer Offer
// while readers snapshot; total weight must reconcile.
func TestConcurrentOfferSnapshot(t *testing.T) {
	sk := TopK[uint32](NewRegistry(), "test", "", 256, func(k uint32) string { return fmt.Sprintf("k%d", k) })
	const writers = 8
	const perWriter = 20_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sk.Snapshot(10)
					sk.Total()
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.2, 1, 10_000)
			for i := 0; i < perWriter; i++ {
				sk.Offer(uint32(zipf.Uint64()), 1)
			}
		}(int64(w))
	}
	// Wait for the writers (the first `writers` goroutines added after the
	// readers), then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish when total weight reaches the expected sum.
	for sk.Total() < float64(writers*perWriter) {
	}
	close(stop)
	<-done
	if got := sk.Total(); got != float64(writers*perWriter) {
		t.Fatalf("total weight: got %v want %v", got, writers*perWriter)
	}
}

// TestOfferSteadyStateAllocs pins the zero-allocation contract for the
// hot path: once a key is resident — and on the eviction path too — Offer
// must not allocate.
func TestOfferSteadyStateAllocs(t *testing.T) {
	sk := TopK[string](NewRegistry(), "test", "", 32, FormatString)
	keys := make([]string, 64) // 2x capacity: half the offers evict
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		sk.Offer(keys[i], 1)
	}
	var i int
	allocs := testing.AllocsPerRun(5000, func() {
		sk.Offer(keys[i%len(keys)], 1)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Offer allocates %.1f times per call in steady state, want 0", allocs)
	}
}

// TestTopsOrderAndLookup covers the registry's view of its dimensions:
// registration order (other kinds skipped), name and help filled in, and
// lookup by name.
func TestTopsOrderAndLookup(t *testing.T) {
	reg := NewRegistry()
	a := TopK[string](reg, "z", "first", 8, FormatString)
	reg.Counter("between_total", "")
	TopK[string](reg, "b", "second", 8, FormatString)
	a.Offer("x", 3)
	tops := reg.Tops(5)
	if len(tops) != 2 || tops[0].Name != "z" || tops[1].Name != "b" || tops[0].Help != "first" {
		t.Fatalf("Tops: %+v", tops)
	}
	if snap, ok := reg.Top("z", 1); !ok || snap.Total != 3 || snap.Entries[0].Key != "x" {
		t.Fatalf("Top(z): %+v %v", snap, ok)
	}
	for _, name := range []string{"between_total", "nope"} {
		if _, ok := reg.Top(name, 1); ok {
			t.Fatalf("Top(%s) should not be ok", name)
		}
	}
}

// TestOfferEachIsOffers: one OfferEach is the Offers of its pairs in order,
// non-positive weights skipped, takeovers included.
func TestOfferEachIsOffers(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "d", "e", "b", "f"}
	ws := []float64{1, 2, 0, 3, -1, 1, 4, 2}
	one := TopK[string](NewRegistry(), "test", "", 4, FormatString)
	each := TopK[string](NewRegistry(), "test", "", 4, FormatString)
	for i, k := range keys {
		one.Offer(k, ws[i])
	}
	each.OfferEach(len(keys), func(i int) (string, float64) { return keys[i], ws[i] })
	if a, b := fmt.Sprint(one.Snapshot(0)), fmt.Sprint(each.Snapshot(0)); a != b {
		t.Fatalf("Offer one by one: %s\nOfferEach:          %s", a, b)
	}
}
