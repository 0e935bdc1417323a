package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

// packedPopulation is prunePopulation with the vectors packed once and
// handed to the index as they are, the way a broker hands a profile's: the
// index and the returned map share every slice.
func packedPopulation(rng *rand.Rand, nUsers, vocab int) (*Index, map[string][]vsm.Packed) {
	_, profiles := prunePopulation(rng, nUsers, vocab)
	ix, packed := New(), map[string][]vsm.Packed{}
	for user, vecs := range profiles {
		for _, v := range vecs {
			packed[user] = append(packed[user], vsm.Pack(v))
		}
		ix.SetPacked(user, packed[user])
	}
	return ix, packed
}

// profileScore is core.Profile.Score over a user's packed vectors: the
// largest Resolve(doc).Dot(v).
func profileScore(doc vsm.Vector, vecs []vsm.Packed) float64 {
	r := vsm.Resolve(doc)
	defer r.Release()
	best := 0.0
	for _, p := range vecs {
		if s := r.Dot(p); s > best {
			best = s
		}
	}
	return best
}

// TestMatchScoreIsProfileScore is the delivery contract at the index: the
// users Match returns at θ are exactly those whose profile scores the
// document ≥ θ, and the score it reports is that score — compared with ==,
// the same float64 sum in the same order, not a float32 neighbour of it. It
// holds whatever state the posting lists are in: staged tails and rebuilt
// bodies after the load, tombstones after churn, compacted, optimized; with
// and without pruning; through Match and MatchDoc.
func TestMatchScoreIsProfileScore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ix, packed := packedPopulation(rng, 900, 30)
	requireHotLists(t, ix)
	probes := make([]vsm.Vector, 6)
	for i := range probes {
		probes[i] = randProbe(rng, 30)
	}
	check := func(state string) {
		t.Helper()
		for pi, doc := range probes {
			d := vsm.Retain(doc)
			want := map[string]float64{}
			for user, vecs := range packed {
				if s := profileScore(doc, vecs); s > 0 {
					want[user] = s
				}
			}
			for _, theta := range thetaGrid {
				n := 0
				for _, s := range want {
					if s >= theta {
						n++
					}
				}
				for _, via := range []string{"Match", "MatchDoc", "unpruned"} {
					var got []Match
					switch via {
					case "Match":
						got = ix.Match(doc, theta)
					case "MatchDoc":
						got = ix.MatchDoc(d, theta)
					default:
						ix.SetPruning(false)
						got = ix.Match(doc, theta)
						ix.SetPruning(true)
					}
					if len(got) != n {
						t.Fatalf("%s probe %d θ=%v %s: %d users, %d profiles score ≥ θ", state, pi, theta, via, len(got), n)
					}
					for _, m := range got {
						if m.Score != want[m.User] {
							t.Fatalf("%s probe %d θ=%v %s: %s matched at %v, its profile scores %v",
								state, pi, theta, via, m.User, m.Score, want[m.User])
						}
					}
				}
			}
		}
	}
	check("loaded")
	users := make([]string, 0, len(packed))
	for user := range packed {
		users = append(users, user)
	}
	for i := 0; i < 300; i++ {
		user := users[rng.Intn(len(users))]
		switch rng.Intn(3) {
		case 0:
			delete(packed, user)
			ix.RemoveUser(user)
		case 1: // a new vector beside the ones the user keeps
			packed[user] = append(packed[user], vsm.Pack(randProbe(rng, 30)))
			ix.SetPacked(user, packed[user])
		default: // the first one goes, the rest shift down
			if len(packed[user]) > 1 {
				packed[user] = packed[user][1:]
				ix.SetPacked(user, packed[user])
			}
		}
	}
	check("churned")
	ix.Compact()
	check("compacted")
	ix.Optimize()
	check("optimized")
}

// counter reads one of the index's counters off its registry.
func counter(reg *metrics.Registry, name string) int64 {
	return reg.Snapshot()[name].(int64)
}

// TestSetPackedKeepsTheSlicesItIsHandedAgain: a vector handed to SetPacked
// as the very slices an entry already holds keeps its slot and its
// postings, and is renumbered when the vectors before it go; equal contents
// in other slices are a new vector.
func TestSetPackedKeepsTheSlicesItIsHandedAgain(t *testing.T) {
	reg := metrics.NewRegistry()
	ix := New()
	ix.Instrument(reg)
	kept := func() int64 { return counter(reg, "mm_index_vectors_kept_total") }
	restaged := func() int64 { return counter(reg, "mm_index_vectors_restaged_total") }
	ratio := func() float64 { return reg.Snapshot()["mm_index_tombstone_ratio"].(float64) }

	a, b, c := vsm.Pack(vec("cat", 1.0, "dog", 0.5)), vsm.Pack(vec("stock", 1.0, "bond", 0.5)), vsm.Pack(vec("rain", 1.0, "snow", 0.5))
	ix.SetPacked("u", []vsm.Packed{a, b, c})
	if kept() != 0 || restaged() != 3 {
		t.Fatalf("first SetPacked: kept %d restaged %d, want 0 and 3", kept(), restaged())
	}
	ix.SetPacked("u", []vsm.Packed{a, b, c})
	if kept() != 3 || restaged() != 3 || ratio() != 0 {
		t.Fatalf("the same three again: kept %d restaged %d tombstone ratio %v, want 3, 3 and 0", kept(), restaged(), ratio())
	}
	vectorOf := func(doc vsm.Vector) int {
		t.Helper()
		ms := ix.Match(doc, 0.5)
		if len(ms) != 1 || ms[0].User != "u" {
			t.Fatalf("Match(%v) = %+v", doc.Terms, ms)
		}
		return ms[0].Vector
	}
	if got := vectorOf(vec("rain", 1.0)); got != 2 {
		t.Errorf("c is vector %d, want 2", got)
	}

	// The middle vector goes: c is kept, and is vector 1 now.
	ix.SetPacked("u", []vsm.Packed{a, c})
	if kept() != 5 || restaged() != 3 {
		t.Errorf("after dropping the middle vector: kept %d restaged %d, want 5 and 3", kept(), restaged())
	}
	if got := vectorOf(vec("rain", 1.0)); got != 1 {
		t.Errorf("c is vector %d after b went, want 1", got)
	}
	if ms := ix.Match(vec("stock", 1.0), 0.1); len(ms) != 0 {
		t.Errorf("b still matches after it was dropped: %+v", ms)
	}

	// Equal contents, other slices: a new vector. So is one that shares only
	// its ids.
	c2 := vsm.Pack(c.Vector())
	ix.SetPacked("u", []vsm.Packed{a, c2})
	if kept() != 6 || restaged() != 4 {
		t.Errorf("an equal copy of c: kept %d restaged %d, want 6 and 4", kept(), restaged())
	}
	halfIDs := vsm.Packed{IDs: a.IDs, Weights: append([]float64(nil), a.Weights...)}
	ix.SetPacked("u", []vsm.Packed{halfIDs, c2})
	if kept() != 7 || restaged() != 5 {
		t.Errorf("a's ids under other weights: kept %d restaged %d, want 7 and 5", kept(), restaged())
	}

	// The same Packed twice: one slot cannot be two vectors.
	ix.SetPacked("u", []vsm.Packed{c2, c2})
	if kept() != 8 || restaged() != 6 {
		t.Errorf("c2 twice: kept %d restaged %d, want 8 and 6", kept(), restaged())
	}
	if st := ix.Size(); st.Vectors != 2 || st.Users != 1 || st.Postings != 4 {
		t.Errorf("Size with c2 twice = %+v", st)
	}
	ix.SetPacked("u", []vsm.Packed{c2})
	if st := ix.Size(); st.Vectors != 1 || st.Postings != 2 {
		t.Errorf("Size with c2 once = %+v", st)
	}
	if got := vectorOf(vec("rain", 1.0)); got != 0 {
		t.Errorf("c2 is vector %d, want 0", got)
	}
	ix.SetPacked("u", nil)
	if st := ix.Size(); st != (Stats{}) {
		t.Errorf("Size after the empty set = %+v", st)
	}
}

// TestDroppedVectorTombstonesAndItsSlotWaitsForCompaction: when the next
// set lacks one vector of three, the other two stay in the entry slots they
// had, the dropped one's postings are tombstoned where they lie, and its
// slot is handed out again only once a compaction has swept them — until
// then a stale posting could still score onto it.
func TestDroppedVectorTombstonesAndItsSlotWaitsForCompaction(t *testing.T) {
	ix := New()
	slotsOf := func(user string) []uint32 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return slices.Clone(ix.byUser[user].slots)
	}
	a, b, c := vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("stock", 1.0)), vsm.Pack(vec("rain", 1.0))
	ix.SetPacked("u", []vsm.Packed{a, b, c})
	before := slotsOf("u")
	ix.SetPacked("u", []vsm.Packed{a, c})
	if after := slotsOf("u"); !slices.Equal(after, []uint32{before[0], before[2]}) {
		t.Fatalf("entry slots %v → %v: a and c should have kept theirs", before, after)
	}
	if ix.stale != 1 || !slices.Equal(ix.dead, []uint32{before[1]}) || len(ix.freeEnt) != 0 {
		t.Fatalf("after the drop: %d stale postings, dead %v, free %v; want b's one posting stale and its slot dead", ix.stale, ix.dead, ix.freeEnt)
	}
	ix.SetPacked("v", []vsm.Packed{vsm.Pack(vec("snow", 1.0))})
	if got := slotsOf("v"); got[0] == before[1] {
		t.Fatalf("v took slot %d while b's posting still points at it", got[0])
	}
	ix.Compact()
	if ix.stale != 0 || len(ix.dead) != 0 || !slices.Equal(ix.freeEnt, []uint32{before[1]}) {
		t.Fatalf("after Compact: %d stale postings, dead %v, free %v; want b's slot free", ix.stale, ix.dead, ix.freeEnt)
	}
	ix.SetPacked("w", []vsm.Packed{vsm.Pack(vec("hail", 1.0))})
	if got := slotsOf("w"); got[0] != before[1] {
		t.Errorf("w took slot %d, want the recycled %d", got[0], before[1])
	}
	if ms := ix.Match(vec("stock", 1.0), 0); len(ms) != 0 {
		t.Errorf("b still matches: %+v", ms)
	}
}

// TestCommitRevalidatesKeptSlots drives the write path's steps by hand to
// put another writer between keep and commit — the index does not serialise
// writers per user, the broker does. A kept slot that was retired in
// between, or retired and recycled for someone else's vector, must not be
// renumbered: commit changes nothing and hands the vector back for staging.
func TestCommitRevalidatesKeptSlots(t *testing.T) {
	a, b := vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("dog", 1.0))
	for _, between := range []string{"RemoveUser", "replaced", "recycled"} {
		ix := New()
		ix.SetPacked("u", []vsm.Packed{a, b})
		svs := []stagedVec{{vec: 0, p: b}, {vec: 1, p: a}}
		kept := ix.keep("u", svs)
		if kept != 2 {
			t.Fatalf("%s: keep found %d of 2", between, kept)
		}
		wantLost := 2
		switch between {
		case "RemoveUser":
			ix.RemoveUser("u")
		case "replaced": // the other writer keeps a, drops b
			ix.SetPacked("u", []vsm.Packed{a})
			wantLost = 1
		case "recycled":
			ix.RemoveUser("u")
			ix.Compact() // both slots free again
			ix.SetPacked("v", []vsm.Packed{vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("dog", 1.0))})
		}
		before := ix.Size()
		lost := ix.commit("u", svs, kept)
		if lost != wantLost {
			t.Fatalf("%s: commit lost %d kept slots, want %d", between, lost, wantLost)
		}
		if after := ix.Size(); after != before {
			t.Fatalf("%s: a refused commit changed the index: %+v → %+v", between, before, after)
		}
		// What SetPacked does next.
		fresh := svs[kept-lost : kept]
		ix.stage("u", fresh)
		ix.insertPostings(fresh)
		if lost := ix.commit("u", svs, kept-lost); lost != 0 {
			t.Fatalf("%s: second commit lost %d", between, lost)
		}
		oracle := New()
		oracle.SetPacked("u", []vsm.Packed{b, a})
		if between == "recycled" {
			ix.RemoveUser("v")
		}
		for _, doc := range []vsm.Vector{vec("cat", 1.0), vec("dog", 1.0)} {
			got, want := ix.Match(doc, 0.5), oracle.Match(doc, 0.5)
			if len(got) != 1 || got[0] != want[0] {
				t.Errorf("%s: Match(%v) = %+v, want %+v", between, doc.Terms, got, want)
			}
		}
		if got, want := ix.Size(), oracle.Size(); got != want {
			t.Errorf("%s: Size %+v, want %+v", between, got, want)
		}
	}
}

// TestKeptSlotSurvivesConcurrentWriters: two writers SetPacked and
// RemoveUser the same user with overlapping slices while a reader matches.
// Whatever the interleaving — a kept slot retired under the writer that
// meant to keep it, a slot recycled between keep and commit — nothing
// panics, a reader never sees a vector number the sets do not have, and
// once the writers are done the next write leaves exactly its own set: no
// ghost entry, no ghost posting.
func TestKeptSlotSurvivesConcurrentWriters(t *testing.T) {
	// Vectors of the paper's size: staging one takes long enough, between
	// keep and commit, for the other writer to get in.
	pool := make([]vsm.Packed, 6)
	for i := range pool {
		m := map[string]float64{"common": 3, fmt.Sprintf("own%d", i): 3}
		for k := 0; k < 98; k++ {
			m[fmt.Sprintf("fill%d-%d", i, k)] = 0.1
		}
		pool[i] = vsm.Pack(vsm.FromMap(m).Normalized())
	}
	ix := New()
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if rng.Intn(8) == 0 {
					ix.RemoveUser("u")
					continue
				}
				lo := rng.Intn(len(pool))
				hi := lo + 1 + rng.Intn(len(pool)-lo)
				ix.SetPacked("u", pool[lo:hi])
				if i%97 == 0 {
					ix.Compact()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		doc := vec("common", 1.0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, m := range ix.Match(doc, 0.1) {
				if m.User != "u" || m.Vector < 0 || m.Vector >= len(pool) {
					t.Errorf("reader saw %+v", m)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	final := []vsm.Packed{pool[4], pool[1], pool[2]}
	ix.SetPacked("u", final)
	oracle := New()
	oracle.SetPacked("u", final)
	for i := range pool {
		doc := vec(fmt.Sprintf("own%d", i), 1.0)
		got, want := ix.Match(doc, 0.1), oracle.Match(doc, 0.1)
		if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			t.Errorf("own%d: Match = %+v, want %+v", i, got, want)
		}
	}
	if got, want := ix.Size(), oracle.Size(); got != want {
		t.Errorf("Size after the last writer = %+v, want %+v", got, want)
	}
	ix.RemoveUser("u")
	if st := ix.Size(); st != (Stats{}) {
		t.Errorf("Size after RemoveUser = %+v: something outlived its user", st)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.dead) != 0 || len(ix.freeEnt) != len(ix.entries) {
		t.Errorf("%d entry slots, %d free, %d dead: a slot was lost", len(ix.entries), len(ix.freeEnt), len(ix.dead))
	}
}
