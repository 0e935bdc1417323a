package pubsub

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/index"
	"mmprofile/internal/metrics"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// shiftStream is the judgments of one internal/sim interest-shift scenario
// (Figs. 8–11): 300 documents of a small corpus, the user's interests
// changing at the 150th.
type shiftStream struct {
	name string
	docs []vsm.Vector
	fds  []filter.Feedback
}

func shiftStreams(t testing.TB) []shiftStream {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.TopCategories = 5
	cfg.SubPerTop = 3
	cfg.PagesPerSub = 6
	cfg.MinWords = 80
	cfg.MaxWords = 150
	ds := corpus.Generate(cfg).Vectorize(text.NewPipeline())
	var out []shiftStream
	for i, scenario := range []func(*rand.Rand, *corpus.Dataset) sim.Shift{
		sim.PartialShift, sim.CompleteShift, sim.AddInterest, sim.DeleteInterest,
	} {
		rng := rand.New(rand.NewSource(int64(20 + i)))
		shift := scenario(rng, ds)
		u := sim.NewUser()
		st := shiftStream{name: shift.Name}
		for step, d := range sim.Stream(rng, ds.Docs, 300) {
			shift.Apply(u, step, 150)
			st.docs = append(st.docs, d.Vec)
			st.fds = append(st.fds, u.Feedback(d))
		}
		out = append(out, st)
	}
	return out
}

// shiftSubscribers subscribes one MM learner per scenario, two with the
// paper's parameters and two with η = 0.6, under which a non-relevant
// judgment of the page a vector was made from annihilates it — the one MM
// operation η = 0.2 never performs on these streams. subs[i] is judged by
// streams[i].
func shiftSubscribers(t testing.TB, b *Broker, streams []shiftStream) (subs []*Subscription) {
	t.Helper()
	for i, st := range streams {
		o := core.DefaultOptions()
		if i%2 == 1 {
			o.Eta = 0.6
		}
		sub, err := b.Subscribe(fmt.Sprintf("%s-eta%v", st.name, o.Eta), core.New(o))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	return subs
}

// drain empties a subscription's delivery queue and reports the delivery of
// doc, if it was in it.
func drain(sub *Subscription, doc int64) (d Delivery, ok bool) {
	for got, more := recv(sub, false); more; got, more = recv(sub, false) {
		if got.Doc == doc {
			d, ok = got, true
		}
	}
	return d, ok
}

// TestDeliveredSetIsScoreAtLeastTheta is the paper's delivery rule held at
// the broker, with no borderline: while four profiles adapt through the
// four shift scenarios, after every judgment a probe is published and its
// recipients must be exactly the subscribers whose learner scores it ≥ θ,
// each at exactly that score. When postings and entries held float32
// weights the index's score could land on the other side of θ from
// Profile.Score; now it is Profile.Score.
func TestDeliveredSetIsScoreAtLeastTheta(t *testing.T) {
	const theta = 0.25
	streams := shiftStreams(t)
	b := New(Options{Threshold: theta})
	subs := shiftSubscribers(t, b, streams)
	delivered, withheld := 0, 0
	for step := range streams[0].docs {
		for i, sub := range subs {
			st := streams[i]
			doc, _ := b.PublishVector(st.docs[step])
			if err := sub.Feedback(doc, st.fds[step]); err != nil {
				t.Fatal(err)
			}
		}
		probe := streams[step%len(streams)].docs[(step*7+3)%len(streams[0].docs)]
		doc, n := b.PublishVector(probe)
		got := 0
		for _, sub := range subs {
			d, ok := drain(sub, doc)
			score := sub.Score(probe)
			switch {
			case ok && d.Score != score:
				t.Fatalf("step %d: %s was sent the probe at %v, its profile scores it %v", step, sub.ID(), d.Score, score)
			case ok != (score >= theta):
				t.Fatalf("step %d: %s scores the probe %v against θ = %v, delivered: %v", step, sub.ID(), score, theta, ok)
			case ok:
				got++
			default:
				withheld++
			}
		}
		if got != n {
			t.Fatalf("step %d: PublishVector reported %d deliveries, the queues held %d", step, n, got)
		}
		delivered += got
	}
	if delivered == 0 || withheld == 0 {
		t.Errorf("%d probes delivered, %d withheld: the rule was only seen from one side", delivered, withheld)
	}
}

// TestIncrementalReindexEqualsSetPacked: the broker's index, which after a
// judgment restages only the vectors whose slices changed and renumbers the
// ones it keeps, is at every step the index one SetPacked of the same
// vectors builds from nothing — same users, same scores (==), same vector
// numbers, same size once compacted — while a reader matches against it. The
// streams make MM create, incorporate, merge, delete by decay and
// annihilate, and take vectors out from before others, which then shift
// down.
func TestIncrementalReindexEqualsSetPacked(t *testing.T) {
	streams := shiftStreams(t)
	reg := metrics.NewRegistry()
	b := New(Options{Threshold: 0.25, Metrics: reg})
	subs := shiftSubscribers(t, b, streams)

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := streams[i%len(streams)]
			for _, m := range b.idx.Match(st.docs[i%len(st.docs)], 0.2) {
				if m.Score < 0.2 || m.User == "" || m.Vector < 0 {
					t.Errorf("reader saw %+v", m)
					return
				}
			}
		}
	}()

	packedOf := func(sub *Subscription) (vecs []vsm.Packed) {
		if err := sub.WithLearner(func(l filter.Learner) { vecs = l.(packedSource).PackedVectors() }); err != nil {
			t.Fatal(err)
		}
		return vecs
	}
	shiftedDown := 0
	for step := range streams[0].docs {
		for i, sub := range subs {
			st := streams[i]
			before := packedOf(sub)
			doc, _ := b.PublishVector(st.docs[step])
			if err := sub.Feedback(doc, st.fds[step]); err != nil {
				t.Fatal(err)
			}
			after := packedOf(sub)
			for bi, p := range before {
				for ai, q := range after {
					if ai < bi && &p.IDs[0] == &q.IDs[0] {
						shiftedDown++
					}
				}
			}
		}
		oracle := index.New()
		for _, sub := range subs {
			oracle.SetPacked(sub.ID(), packedOf(sub))
		}
		for k := 0; k < 4; k++ {
			probe := streams[k].docs[(step*5+k)%len(streams[k].docs)]
			for _, theta := range []float64{0.05, 0.25} {
				got, want := b.idx.Match(probe, theta), oracle.Match(probe, theta)
				if len(got) != len(want) {
					t.Fatalf("step %d probe %d θ=%v: %d matches, a fresh SetPacked gives %d", step, k, theta, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d probe %d θ=%v [%d]: %+v, a fresh SetPacked gives %+v", step, k, theta, i, got[i], want[i])
					}
				}
			}
		}
		if got, want := b.idx.Size(), oracle.Size(); got != want {
			t.Fatalf("step %d: Size %+v, a fresh SetPacked gives %+v", step, got, want)
		}
	}
	close(stop)
	reader.Wait()

	var ops core.OpCounts
	for _, sub := range subs {
		_ = sub.WithLearner(func(l filter.Learner) {
			c := l.(*core.Profile).Counts()
			ops.Created += c.Created
			ops.Incorporated += c.Incorporated
			ops.Merged += c.Merged
			ops.Deleted += c.Deleted
			ops.Annihilated += c.Annihilated
			ops.Ignored += c.Ignored
		})
	}
	if ops.Created == 0 || ops.Incorporated == 0 || ops.Merged == 0 || ops.Deleted == 0 || ops.Annihilated == 0 || ops.Ignored == 0 {
		t.Errorf("the streams did not exercise every MM operation: %+v", ops)
	}
	if shiftedDown == 0 {
		t.Error("no vector was ever removed from before another: renumbering went untested")
	}
	snap := reg.Snapshot()
	kept, restaged := snap["mm_index_vectors_kept_total"].(int64), snap["mm_index_vectors_restaged_total"].(int64)
	t.Logf("ops %+v; %d kept vectors shifted down; kept %d, restaged %d", ops, shiftedDown, kept, restaged)
	// One MM step moves one vector, two when it merges: everything else is kept.
	if moved := int64(ops.Created + ops.Incorporated); restaged > moved {
		t.Errorf("%d vectors restaged by %d steps that created or moved one", restaged, moved)
	}
	if kept == 0 {
		t.Error("no vector was ever kept")
	}
}

// ignoredJudgment subscribes a profile of three well-separated vectors and
// retains a page unlike all of them: judged non-relevant, it falls outside
// every similarity circle and MM ignores it.
func ignoredJudgment(t testing.TB, b *Broker) (sub *Subscription, doc int64) {
	t.Helper()
	p := core.NewDefault()
	for _, topic := range []string{"cat", "stock", "rain"} {
		m := map[string]float64{}
		for k := 0; k < 40; k++ {
			m[fmt.Sprintf("%s%02d", topic, k)] = 1 + float64(k%5)
		}
		p.Observe(vsm.FromMap(m).Normalized(), filter.Relevant)
	}
	if p.ProfileSize() != 3 {
		t.Fatalf("trained %d vectors, want 3", p.ProfileSize())
	}
	sub, err := b.Subscribe("alice", p)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ = b.PublishVector(vec("elsewhere", 1.0, "entirely", 1.0))
	return sub, doc
}

// TestJudgmentThatMovesNothingRestagesNothing: a judgment MM ignores hands
// the index the slices it already holds, and the index says so — nothing
// restaged, no tombstone made, no posting more or fewer.
func TestJudgmentThatMovesNothingRestagesNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Options{Threshold: 0.25, Metrics: reg})
	sub, doc := ignoredJudgment(t, b)
	read := func() (ratio float64, restaged, kept int64, postings int) {
		snap := reg.Snapshot()
		ratio = snap["mm_index_tombstone_ratio"].(float64)
		restaged = snap["mm_index_vectors_restaged_total"].(int64)
		kept = snap["mm_index_vectors_kept_total"].(int64)
		return ratio, restaged, kept, b.IndexStats().Postings // compacts: read last
	}
	ratio0, restaged0, kept0, postings0 := read()
	if restaged0 != 3 || postings0 != 120 {
		t.Fatalf("subscribing restaged %d vectors into %d postings, want 3 and 120", restaged0, postings0)
	}
	ignored := reg.Snapshot()["mm_feedback_ignored_total"].(int64)
	for i := 0; i < 5; i++ {
		if err := sub.Feedback(doc, filter.NotRelevant); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot()["mm_feedback_ignored_total"].(int64) - ignored; got != 5 {
		t.Fatalf("MM ignored %d of the 5 judgments: the test's premise is gone", got)
	}
	ratio, restaged, kept, postings := read()
	if ratio != ratio0 || restaged != restaged0 || postings != postings0 {
		t.Errorf("five ignored judgments: tombstone ratio %v → %v, restaged %d → %d, postings %d → %d",
			ratio0, ratio, restaged0, restaged, postings0, postings)
	}
	if kept != kept0+15 {
		t.Errorf("kept %d → %d, want 3 vectors kept by each of 5 reindexes", kept0, kept)
	}
}

// TestIgnoredFeedbackAllocatesNoPostingAndNoEntry is the allocation side of
// the same fact: a reindex that keeps every vector allocates nothing that
// grows with the profile — no entry, no posting, no copy of a vector. What
// is left is the per-call bookkeeping (the PackedVectors header slice, the
// staged list), a handful of small objects whatever the profile holds.
func TestIgnoredFeedbackAllocatesNoPostingAndNoEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	b := New(Options{Threshold: 0.25})
	sub, doc := ignoredJudgment(t, b)
	if err := sub.Feedback(doc, filter.NotRelevant); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := sub.Feedback(doc, filter.NotRelevant); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per ignored judgment", allocs)
	if allocs > 4 {
		t.Errorf("an ignored judgment costs %.1f allocations, budget 4: something on the reindex path copies again", allocs)
	}
}
