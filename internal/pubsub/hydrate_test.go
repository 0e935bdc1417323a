package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/store"
	"mmprofile/internal/vsm"
)

// hydUsers builds the mixed user population: mostly MM and a few MMND, so
// eviction and hydration replay both served learner names.
func hydUsers(n int) ([]string, map[string]string) {
	users := make([]string, n)
	names := make(map[string]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
		if i%6 == 5 {
			names[users[i]] = "MMND"
		} else {
			names[users[i]] = "MM"
		}
	}
	return users, names
}

func randTermVec(rng *rand.Rand) vsm.Vector {
	terms := []string{"cat", "dog", "bird", "fish", "lion", "wolf", "bear", "crow"}
	m := map[string]float64{}
	for _, tm := range terms {
		if rng.Float64() < 0.4 {
			m[tm] = rng.Float64() + 0.05
		}
	}
	v := vsm.FromMap(m).Normalized()
	if v.IsZero() {
		return vsm.FromMap(map[string]float64{"cat": 1}).Normalized()
	}
	return v
}

// TestBoundedResidencyMatchesUnbounded is the lazy-hydration equivalence
// property (DESIGN.md §14): a broker holding at most 4 profiles resident —
// evicting and rehydrating through a real sharded store, across
// checkpoints — must end every profile in a state bit-identical
// (MarshalBinary) to an always-resident broker fed the same operation
// sequence.
func TestBoundedResidencyMatchesUnbounded(t *testing.T) {
	const (
		nUsers      = 24
		maxResident = 4
		steps       = 300
	)
	reg := metrics.NewRegistry()
	stA, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	stB, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()

	bounded := New(Options{Threshold: 0.3, Journal: stA, Hydrator: stA, MaxResident: maxResident, Metrics: reg})
	full := New(Options{Threshold: 0.3, Journal: stB})

	users, names := hydUsers(nUsers)
	for _, u := range users {
		la, err := core.NewNamed(names[u], nil)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := core.NewNamed(names[u], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bounded.Subscribe(u, la); err != nil {
			t.Fatal(err)
		}
		if _, err := full.Subscribe(u, lb); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < steps; step++ {
		v := randTermVec(rng)
		docA, _ := bounded.PublishVector(v)
		docB, _ := full.PublishVector(v)
		if docA != docB {
			t.Fatalf("step %d: doc ids diverge (%d vs %d)", step, docA, docB)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			u := users[rng.Intn(nUsers)]
			fd := filter.Relevant
			if rng.Float64() < 0.35 {
				fd = filter.NotRelevant
			}
			if err := bounded.Feedback(u, docA, fd); err != nil {
				t.Fatalf("step %d: bounded feedback %s: %v", step, u, err)
			}
			if err := full.Feedback(u, docB, fd); err != nil {
				t.Fatalf("step %d: full feedback %s: %v", step, u, err)
			}
		}
		// Periodic checkpoints move cold profiles into segments, so later
		// hydrations replay segment + short log rather than the full WAL.
		if step%60 == 59 {
			if _, err := stA.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, u := range users {
		a, err := bounded.ExportProfile(u)
		if err != nil {
			t.Fatalf("export %s (bounded): %v", u, err)
		}
		b, err := full.ExportProfile(u)
		if err != nil {
			t.Fatalf("export %s (full): %v", u, err)
		}
		if a.Learner != b.Learner || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("user %s: bounded profile diverges from always-resident (%d vs %d bytes)",
				u, len(a.Data), len(b.Data))
		}
	}

	snap := reg.Snapshot()
	if got := snap["mm_pubsub_hydrations_total"].(int64); got == 0 {
		t.Error("no hydrations recorded — the bound never kicked in")
	}
	if got := snap["mm_pubsub_profile_evictions_total"].(int64); got == 0 {
		t.Error("no evictions recorded")
	}
	if got := snap["mm_pubsub_resident_profiles"].(float64); got > maxResident {
		t.Errorf("resident profiles = %v, want <= %d", got, maxResident)
	}
}

// TestLazyBootHydratesOnDemand pins the O(subscribers) boot path: users
// registered as evicted stubs (SubscribeRestored with a nil learner)
// occupy no heap and leave the match path until first touched, then
// hydrate to exactly the state the journal describes.
func TestLazyBootHydratesOnDemand(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := New(Options{Threshold: 0.3, Journal: st})
	for _, u := range []string{"alice", "bob", "carol"} {
		if _, err := b1.Subscribe(u, core.NewDefault()); err != nil {
			t.Fatal(err)
		}
		doc, _ := b1.PublishVector(vec("cat", 1.0))
		if err := b1.Feedback(u, doc, filter.Relevant); err != nil {
			t.Fatal(err)
		}
	}
	wantSize := make(map[string]int)
	for _, u := range []string{"alice", "bob", "carol"} {
		snap, err := b1.ExportProfile(u)
		if err != nil {
			t.Fatal(err)
		}
		wantSize[u] = len(snap.Data)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	users, err := st2.RestoredUsers()
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	b2 := New(Options{Threshold: 0.3, Journal: st2, Hydrator: st2, MaxResident: 1, Metrics: reg})
	subs := map[string]*Subscription{}
	for _, u := range users {
		sub, err := b2.SubscribeRestored(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[u] = sub
	}
	if got := reg.Snapshot()["mm_pubsub_resident_profiles"].(float64); got != 0 {
		t.Fatalf("resident after lazy boot = %v, want 0", got)
	}
	// Evicted stubs are off the match path entirely.
	if _, n := b2.PublishVector(vec("cat", 1.0)); n != 0 {
		t.Fatalf("evicted subscribers took %d deliveries", n)
	}

	// First touch hydrates; the bound keeps at most one resident.
	snap, err := b2.ExportProfile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Data) != wantSize["alice"] {
		t.Errorf("hydrated alice = %d bytes, want %d", len(snap.Data), wantSize["alice"])
	}
	doc, n := b2.PublishVector(vec("cat", 1.0))
	if n != 1 {
		t.Errorf("hydrated alice should match: deliveries = %d, want 1", n)
	}
	// Feedback on an evicted user hydrates it and evicts alice (bound 1).
	if err := b2.Feedback("bob", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	ms := reg.Snapshot()
	if got := ms["mm_pubsub_resident_profiles"].(float64); got > 1 {
		t.Errorf("resident = %v, want <= 1", got)
	}
	if got := ms["mm_pubsub_hydrations_total"].(int64); got < 2 {
		t.Errorf("hydrations = %d, want >= 2", got)
	}
	// Pairs leave with an evicted profile and come back with a hydrated
	// one: only bob, one one-term vector, is resident.
	if got := ms["mm_profile_resident_pairs"].(float64); got != 1 {
		t.Errorf("resident pairs = %v, want bob's 1", got)
	}
	if got := subs["carol"].ProfileSize(); got == 0 {
		t.Error("carol did not hydrate on ProfileSize")
	}
}

// TestSubscribeRestoredErrors pins the argument contract: a nil learner
// needs a hydrator, and duplicates are refused.
func TestSubscribeRestoredErrors(t *testing.T) {
	if _, err := New(Options{}).SubscribeRestored("u", nil); err == nil {
		t.Error("nil learner without hydrator accepted")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := New(Options{Journal: st, Hydrator: st, MaxResident: 1})
	if _, err := b.SubscribeRestored("u", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeRestored("u", nil); err == nil {
		t.Error("duplicate restore accepted")
	}
	if _, err := b.SubscribeRestored("v", core.NewDefault()); err != nil {
		t.Fatal(err)
	}
	// A hydrator that fails is an error, not a panic, and the stub stays
	// evicted.
	sub, err := New(Options{Hydrator: failingHydrator{}}).SubscribeRestored("w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WithLearner(func(*core.Profile) { t.Error("fn ran on a failed hydration") }); err == nil ||
		!strings.Contains(err.Error(), "segment unreadable") {
		t.Errorf("a failed hydration = %v, want the hydrator's error", err)
	}
	if sub.sub.learner != nil {
		t.Error("a failed hydration left a resident profile")
	}
}

type failingHydrator struct{}

func (failingHydrator) RestoreUser(string) (*core.Profile, bool, error) {
	return nil, false, errors.New("segment unreadable")
}

// TestSubscribeRestoredStubHoldsNoQueue pins what an evicted stub costs:
// no delivery buffer until something is delivered to it, no wake
// registration while nobody listens — and an unsubscribe still closes the
// stream for readers who were waiting on it and for readers who only
// register afterwards.
func TestSubscribeRestoredStubHoldsNoQueue(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := New(Options{Threshold: 0.3, Journal: st, Hydrator: st, MaxResident: 4})
	subs := map[string]*Subscription{}
	for _, u := range []string{"waited", "asked-late", "matched"} {
		if err := st.AppendSubscribe(u, "MM", nil); err != nil {
			t.Fatal(err)
		}
		if subs[u], err = b.SubscribeRestored(u, nil); err != nil {
			t.Fatal(err)
		}
		if subs[u].sub.ring != nil || subs[u].sub.wakes != nil {
			t.Fatalf("stub %q was born with a delivery buffer or a wake registration", u)
		}
	}
	got := make(chan bool)
	go func() { _, ok := recv(subs["waited"], true); got <- ok }()
	for !subs["waited"].sub.waitedOn() {
		runtime.Gosched()
	}
	b.Unsubscribe("waited")
	if <-got {
		t.Error("a reader waiting across the unsubscribe got a delivery, want a closed stream")
	}
	if subs["waited"].sub.waitedOn() {
		t.Error("a reader that returned left its wake registered")
	}
	b.Unsubscribe("asked-late")
	ready, cancel := readyChan(subs["asked-late"])
	select {
	case <-ready:
	default:
		t.Error("a reader registering after the unsubscribe would wait: OnReady did not wake it")
	}
	cancel()
	if _, ok := recv(subs["asked-late"], true); ok {
		t.Error("a reader arriving after the unsubscribe did not find the stream closed")
	}

	// First delivery makes the buffer, and the accounting starts at zero.
	doc, _ := b.PublishVector(vec("cat", 1.0))
	if err := b.Feedback("matched", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if subs["matched"].sub.queueMade() {
		t.Error("feedback alone made a delivery buffer")
	}
	if _, n := b.PublishVector(vec("cat", 1.0)); n != 1 {
		t.Fatalf("deliveries = %d, want 1", n)
	}
	if d, _ := recv(subs["matched"], true); d.Seq != 0 {
		t.Errorf("first delivery carries seq %d, want 0", d.Seq)
	}
	if next, dropped := subs["matched"].DeliveryStats(); next != 1 || dropped != 0 {
		t.Errorf("DeliveryStats = %d, %d, want 1, 0", next, dropped)
	}
}

// queueMade reports, under the lock, whether the delivery buffer exists.
func (s *subscriber) queueMade() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring != nil
}

// waitedOn reports, under the lock, whether any consumer has a wake
// registered.
func (s *subscriber) waitedOn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wakes != nil
}

// TestBoundedResidencyConcurrent churns feedbacks, publishes, and
// introspection against a tiny residency bound from many goroutines — the
// race detector's view of the evict/hydrate/LRU interplay.
func TestBoundedResidencyConcurrent(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := New(Options{Threshold: 0.3, Journal: st, Hydrator: st, MaxResident: 2})
	users, names := hydUsers(8)
	for _, u := range users {
		l, err := core.NewNamed(names[u], nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Subscribe(u, l); err != nil {
			t.Fatal(err)
		}
	}
	seed, _ := b.PublishVector(vec("cat", 1.0, "dog", 0.5))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				u := users[rng.Intn(len(users))]
				switch rng.Intn(3) {
				case 0:
					if err := b.Feedback(u, seed, filter.Relevant); err != nil {
						t.Errorf("feedback %s: %v", u, err)
						return
					}
				case 1:
					b.PublishVector(randTermVec(rng))
				default:
					if _, err := b.ProfileInfo(u, 3); err != nil {
						t.Errorf("profile info %s: %v", u, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, err := st.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if _, err := b.ExportProfile(u); err != nil {
			t.Fatal(err)
		}
	}
}
