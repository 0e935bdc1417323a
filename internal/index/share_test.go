package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

// packedPopulation is prunePopulation with the vectors packed once and
// handed to the index as they are, the way a broker hands a profile's: the
// index and the returned map share every slice. copies adds, per user of
// that population, as many users whose vectors duplicate some user's in
// the three ways a server sees them: the very Packed another user holds (a
// vector a profile adopted from the index), equal content in arrays of
// their own (a fresh import), and one vector held twice — as one Packed
// and as an equal copy — beside a vector of their own.
func packedPopulation(rng *rand.Rand, nUsers, vocab, copies int) (*Index, map[string][]vsm.Packed) {
	_, profiles := prunePopulation(rng, nUsers, vocab)
	ix, packed := New(), map[string][]vsm.Packed{}
	users := make([]string, 0, len(profiles))
	for user := range profiles {
		users = append(users, user)
	}
	slices.Sort(users)
	for _, user := range users {
		for _, v := range profiles[user] {
			packed[user] = append(packed[user], vsm.Pack(v))
		}
		ix.SetPacked(user, packed[user])
	}
	for d := 0; d < nUsers*copies; d++ {
		src := packed[users[rng.Intn(len(users))]]
		var vecs []vsm.Packed
		switch d % 3 {
		case 0:
			vecs = slices.Clone(src)
		case 1:
			for _, p := range src {
				vecs = append(vecs, clonePacked(p))
			}
		default:
			p := src[rng.Intn(len(src))]
			vecs = []vsm.Packed{p, vsm.Pack(randProbe(rng, vocab)), clonePacked(p)}
		}
		user := fmt.Sprintf("d%05d", d)
		packed[user] = vecs
		ix.SetPacked(user, vecs)
	}
	return ix, packed
}

// clonePacked is p's content in arrays of its own.
func clonePacked(p vsm.Packed) vsm.Packed {
	return vsm.Packed{IDs: slices.Clone(p.IDs), Weights: slices.Clone(p.Weights)}
}

// distinctOf counts the distinct vectors of a population and their terms:
// what the index's entries and postings must come to.
func distinctOf(packed map[string][]vsm.Packed) (vectors, distinct, pairs int) {
	var seen []vsm.Packed
	byHash := map[uint64][]int{}
	for _, vecs := range packed {
		for _, p := range vecs {
			if p.Len() == 0 {
				continue
			}
			vectors++
			h := contentHash(p)
			if !slices.ContainsFunc(byHash[h], func(i int) bool { return seen[i].Equal(p) }) {
				byHash[h] = append(byHash[h], len(seen))
				seen = append(seen, p)
				pairs += p.Len()
			}
		}
	}
	return vectors, len(seen), pairs
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
	ix, packed := packedPopulation(rng, 900, 30, 2)
	requireHotLists(t, ix)
	probes := make([]vsm.Vector, 6)
	for i := range probes {
		probes[i] = randProbe(rng, 30)
	}
	check := func(state string) {
		t.Helper()
		defer func() { // Size compacts: after the matches, which see the state as it is
			vectors, distinct, pairs := distinctOf(packed)
			if st := ix.Size(); st.Vectors != vectors || st.Distinct != distinct || st.Postings != pairs {
				t.Fatalf("%s: Size %+v; the population holds %d vectors, %d distinct, over %d pairs", state, st, vectors, distinct, pairs)
			}
		}()
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
		switch rng.Intn(4) {
		case 0:
			delete(packed, user)
			ix.RemoveUser(user)
		case 3: // another user's vectors, equal content in arrays of its own
			if other := packed[users[rng.Intn(len(users))]]; len(other) > 0 {
				packed[user] = nil
				for _, p := range other {
					packed[user] = append(packed[user], clonePacked(p))
				}
				ix.SetPacked(user, packed[user])
			}
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
// in other slices join the entry that holds them, and SetPacked hands back
// the entry's slices in their place; a weight one bit off is a new vector.
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

	// Equal contents, other slices: a join, no posting — though the user's
	// holding of c retires and its new one joins in the same commit, c's
	// entry never dies. So does a's content over a copy of its weights.
	c2 := vsm.Pack(c.Vector())
	r0 := ratio() // b's tombstones
	got := ix.SetPacked("u", []vsm.Packed{a, c2})
	if kept() != 7 || restaged() != 3 || ratio() != r0 {
		t.Errorf("an equal copy of c: kept %d restaged %d tombstone ratio %v → %v, want 7, 3 and no new tombstone", kept(), restaged(), r0, ratio())
	}
	if !sameSlice(got[0].IDs, a.IDs) || !sameSlice(got[1].IDs, c.IDs) || !sameSlice(got[1].Weights, c.Weights) {
		t.Error("SetPacked did not hand back c's own slices for its equal copy")
	}
	halfIDs := vsm.Packed{IDs: a.IDs, Weights: append([]float64(nil), a.Weights...)}
	ix.SetPacked("u", []vsm.Packed{halfIDs, c2})
	if kept() != 9 || restaged() != 3 {
		t.Errorf("a's ids over a copy of its weights: kept %d restaged %d, want 9 and 3", kept(), restaged())
	}
	offByOne := vsm.Packed{IDs: a.IDs, Weights: []float64{a.Weights[0], math.Nextafter(a.Weights[1], 0)}}
	ix.SetPacked("u", []vsm.Packed{offByOne, c2})
	if kept() != 10 || restaged() != 4 {
		t.Errorf("a weight one bit off: kept %d restaged %d, want 10 and 4", kept(), restaged())
	}
	if st := ix.Size(); st.Vectors != 2 || st.Distinct != 2 || st.Postings != 4 {
		t.Errorf("Size with a' and c2 = %+v", st)
	}

	// The same content twice: one entry, two holdings, one set of postings.
	ix.SetPacked("u", []vsm.Packed{c2, c2})
	if kept() != 12 || restaged() != 4 {
		t.Errorf("c2 twice: kept %d restaged %d, want 12 and 4", kept(), restaged())
	}
	if st := ix.Size(); st.Vectors != 2 || st.Distinct != 1 || st.Users != 1 || st.Postings != 2 {
		t.Errorf("Size with c2 twice = %+v", st)
	}
	if got := vectorOf(vec("rain", 1.0)); got != 0 {
		t.Errorf("c2 twice matches as vector %d, want the lower, 0", got)
	}
	ix.SetPacked("u", []vsm.Packed{c2})
	if st := ix.Size(); st.Vectors != 1 || st.Distinct != 1 || st.Postings != 2 {
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
	a, b, c := vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("stock", 1.0)), vsm.Pack(vec("rain", 1.0))
	ix.SetPacked("u", []vsm.Packed{a, b, c})
	before := slotsOf(ix, "u")
	ix.SetPacked("u", []vsm.Packed{a, c})
	if after := slotsOf(ix, "u"); !slices.Equal(after, []uint32{before[0], before[2]}) {
		t.Fatalf("entry slots %v → %v: a and c should have kept theirs", before, after)
	}
	if ix.stale != 1 || !slices.Equal(ix.dead, []uint32{before[1]}) || len(ix.freeEnt) != 0 {
		t.Fatalf("after the drop: %d stale postings, dead %v, free %v; want b's one posting stale and its slot dead", ix.stale, ix.dead, ix.freeEnt)
	}
	ix.SetPacked("v", []vsm.Packed{vsm.Pack(vec("snow", 1.0))})
	if got := slotsOf(ix, "v"); got[0] == before[1] {
		t.Fatalf("v took slot %d while b's posting still points at it", got[0])
	}
	ix.Compact()
	if ix.stale != 0 || len(ix.dead) != 0 || !slices.Equal(ix.freeEnt, []uint32{before[1]}) {
		t.Fatalf("after Compact: %d stale postings, dead %v, free %v; want b's slot free", ix.stale, ix.dead, ix.freeEnt)
	}
	ix.SetPacked("w", []vsm.Packed{vsm.Pack(vec("hail", 1.0))})
	if got := slotsOf(ix, "w"); got[0] != before[1] {
		t.Errorf("w took slot %d, want the recycled %d", got[0], before[1])
	}
	if ms := ix.Match(vec("stock", 1.0), 0); len(ms) != 0 {
		t.Errorf("b still matches: %+v", ms)
	}
}

// slotsOf is the user's entry slot for each of its vector numbers.
func slotsOf(ix *Index, user string) []uint32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ui := ix.byUser[user]
	slots := make([]uint32, len(ui.held))
	for _, h := range ui.held {
		slots[ix.entries[h.slot].at(h.pos).vec] = h.slot
	}
	return slots
}

// sameAsFresh compares ix on Match and Size with an index built by one
// SetPacked of user's set.
func sameAsFresh(t *testing.T, name string, ix *Index, user string, set []vsm.Packed, docs ...vsm.Vector) {
	t.Helper()
	oracle := New()
	oracle.SetPacked(user, set)
	for _, doc := range docs {
		if got, want := ix.Match(doc, 0.1), oracle.Match(doc, 0.1); !slices.Equal(got, want) {
			t.Errorf("%s: Match(%v) = %+v, want %+v", name, doc.Terms, got, want)
		}
	}
	if got, want := ix.Size(), oracle.Size(); got != want {
		t.Errorf("%s: Size %+v, want %+v", name, got, want)
	}
}

// TestKeptSlotGoneBetweenWrites: between two writes of one user, the slots
// its first write made are retired — by RemoveUser, by a write that keeps
// only one of them — or recycled for equal content of another user. The
// second write, handed the first one's very slices again, leaves the user
// matching as a fresh index says it should.
func TestKeptSlotGoneBetweenWrites(t *testing.T) {
	a, b := vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("dog", 1.0))
	for _, between := range []string{"RemoveUser", "replaced", "recycled"} {
		ix := New()
		ix.SetPacked("u", []vsm.Packed{a, b})
		switch between {
		case "RemoveUser":
			ix.RemoveUser("u")
		case "replaced": // a is kept, b dropped
			ix.SetPacked("u", []vsm.Packed{a})
		case "recycled":
			slots := slotsOf(ix, "u")
			ix.RemoveUser("u")
			ix.Compact() // both slots free again
			ix.SetPacked("v", []vsm.Packed{vsm.Pack(vec("cat", 1.0)), vsm.Pack(vec("dog", 1.0))})
			if got := slotsOf(ix, "v"); !slices.Contains(got, slots[0]) || !slices.Contains(got, slots[1]) {
				t.Fatalf("%s: v took slots %v, not u's old %v", between, got, slots)
			}
		}
		ix.SetPacked("u", []vsm.Packed{b, a})
		ix.RemoveUser("v")
		sameAsFresh(t, between, ix, "u", []vsm.Packed{b, a}, vec("cat", 1.0), vec("dog", 1.0))
	}
}

// TestJoinTargetLeftBeforeTheWrite: a vector equal to an entry whose last
// holder has left — its slot perhaps recycled for other content since — is
// indexed anew, and its user matches as a fresh index says it should.
func TestJoinTargetLeftBeforeTheWrite(t *testing.T) {
	x := vsm.Pack(vec("cat", 1.0, "dog", 0.5))
	for _, between := range []string{"left", "recycled"} {
		ix := New()
		ix.SetPacked("w", []vsm.Packed{x})
		slot := slotsOf(ix, "w")[0]
		ix.RemoveUser("w")
		if between == "recycled" {
			ix.Compact()
			ix.SetPacked("v", []vsm.Packed{vsm.Pack(vec("stock", 1.0))})
			if slotsOf(ix, "v")[0] != slot {
				t.Fatalf("%s: v did not take the dead entry's slot", between)
			}
		}
		ix.SetPacked("u", []vsm.Packed{clonePacked(x)})
		ix.RemoveUser("v")
		sameAsFresh(t, between, ix, "u", []vsm.Packed{x}, vec("cat", 1.0), vec("stock", 1.0))
	}
}

// TestKeptSlotSurvivesConcurrentWriters: two writers SetPacked and
// RemoveUser the same user with overlapping slices while a reader matches.
// Whatever the order the writes take the lock in — a slot the previous
// write kept retired by the next, a slot recycled for the other writer's
// vector — nothing panics, a reader never sees a vector number the sets do
// not have, and once the writers are done the next write leaves exactly its
// own set: no ghost entry, no ghost posting.
func TestKeptSlotSurvivesConcurrentWriters(t *testing.T) {
	// Vectors of the paper's size, so a write holds the lock long enough
	// for the reader and the other writer to queue behind it.
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

// TestPostingsAreDistinctVectors: on a population most of whose vectors
// are copies, the index holds one entry and one set of postings per
// distinct vector — its postings are the sum of the distinct vectors'
// lengths — while Vectors still counts every (user, vector) holding. A user
// whose vectors are copies in arrays of their own adds no posting, and
// SetPacked hands it back the entries' own slices.
func TestPostingsAreDistinctVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix, packed := packedPopulation(rng, 400, 40, 3)
	vectors, distinct, pairs := distinctOf(packed)
	if distinct*2 > vectors {
		t.Fatalf("%d of %d vectors are distinct: the population is meant to be mostly copies", distinct, vectors)
	}
	st := ix.Size()
	t.Logf("%d vectors, %d distinct, %d postings", st.Vectors, st.Distinct, st.Postings)
	if st.Vectors != vectors || st.Distinct != distinct || st.Postings != pairs || st.Users != len(packed) {
		t.Fatalf("Size %+v; the population is %d users holding %d vectors, %d distinct, over %d pairs",
			st, len(packed), vectors, distinct, pairs)
	}
	src := packed["u0000"]
	copies := make([]vsm.Packed, len(src))
	for i, p := range src {
		copies[i] = clonePacked(p)
	}
	got := ix.SetPacked("copier", copies)
	for i := range got {
		if !sameSlice(got[i].IDs, src[i].IDs) || !sameSlice(got[i].Weights, src[i].Weights) {
			t.Errorf("vector %d: SetPacked handed back the copy, not the entry's slices", i)
		}
		if !sameSlice(copies[i].IDs, copies[i].IDs) || sameSlice(copies[i].IDs, src[i].IDs) {
			t.Errorf("vector %d: SetPacked wrote into the caller's slice", i)
		}
	}
	if st := ix.Size(); st.Postings != pairs || st.Distinct != distinct || st.Vectors != vectors+len(src) {
		t.Errorf("after a user of copies: Size %+v, want %d postings, %d distinct, %d vectors", st, pairs, distinct, vectors+len(src))
	}

	// New content twice in one set: the first is fresh and the second joins
	// the entry it made — one set of postings, none tombstoned.
	reg := metrics.NewRegistry()
	ix.Instrument(reg)
	live, stale, dead := ix.live, ix.stale, len(ix.dead)
	z := paperVector("z", 20, 1)
	got = ix.SetPacked("twice", []vsm.Packed{z, clonePacked(z)})
	if !sameSlice(got[1].IDs, z.IDs) {
		t.Error("the second copy of new content was not handed back as the first")
	}
	if ix.live != live+z.Len() || ix.stale != stale || len(ix.dead) != dead {
		t.Errorf("new content twice: postings live %d → %d, stale %d → %d, dead slots %d → %d; want %d more live and nothing tombstoned",
			live, ix.live, stale, ix.stale, dead, len(ix.dead), z.Len())
	}
	if k, r := counter(reg, "mm_index_vectors_kept_total"), counter(reg, "mm_index_vectors_restaged_total"); k != 1 || r != 1 {
		t.Errorf("new content twice: kept %d restaged %d, want 1 and 1", k, r)
	}
	if st := ix.Size(); st.Distinct != distinct+1 || st.Postings != pairs+z.Len() {
		t.Errorf("after new content twice: Size %+v, want %d distinct and %d postings", st, distinct+1, pairs+z.Len())
	}
}

// TestHashCollisionCostsOnlySharing: content whose hash already names an
// entry of other content gets unnamed entries of its own — one per vector,
// not shared — and matches as a fresh index says it should; once the name
// is free, the next equal vector takes it and later ones join.
func TestHashCollisionCostsOnlySharing(t *testing.T) {
	x := vsm.Pack(vec("cat", 1.0, "dog", 0.5))
	y := vsm.Pack(vec("cat", 0.5, "stock", 1.0))
	ix, oracle := New(), New()
	ix.SetPacked("w", []vsm.Packed{x})
	oracle.SetPacked("w", []vsm.Packed{x})
	xs := slotsOf(ix, "w")[0]
	ix.mu.Lock()
	ix.content[contentHash(y)] = xs // as if y hashed as x does
	ix.mu.Unlock()
	for _, u := range []string{"a", "b"} {
		ix.SetPacked(u, []vsm.Packed{clonePacked(y)})
		oracle.SetPacked(u, []vsm.Packed{clonePacked(y)})
	}
	if st := ix.Size(); st.Distinct != 3 || st.Vectors != 3 {
		t.Errorf("Size %+v, want 3 distinct of 3 vectors: colliding content is not shared", st)
	}
	ix.mu.Lock()
	delete(ix.content, contentHash(y)) // x's death would free the name
	ix.mu.Unlock()
	for _, u := range []string{"c", "d"} {
		ix.SetPacked(u, []vsm.Packed{clonePacked(y)})
		oracle.SetPacked(u, []vsm.Packed{clonePacked(y)})
	}
	if st := ix.Size(); st.Distinct != 4 || st.Vectors != 5 {
		t.Errorf("Size %+v, want 4 distinct of 5 vectors: c names a new entry and d joins it", st)
	}
	for _, doc := range []vsm.Vector{vec("cat", 1.0), vec("stock", 1.0), vec("dog", 1.0)} {
		if got, want := ix.Match(doc, 0.1), oracle.Match(doc, 0.1); !slices.Equal(got, want) {
			t.Errorf("Match(%v) = %+v, want %+v", doc.Terms, got, want)
		}
	}
}

// paperVector is a unit vector of the paper's size over its own terms: a
// "common" term at weight common, an own term at 3 and fill at 0.1.
func paperVector(name string, terms int, common float64) vsm.Packed {
	m := map[string]float64{"common": common, "own-" + name: 3}
	for k := 0; len(m) < terms; k++ {
		m[fmt.Sprintf("fill-%s-%d", name, k)] = 0.1
	}
	return vsm.Pack(vsm.FromMap(m).Normalized())
}

// TestSharedEntryUnderConcurrentJoinsAndLeaves: writers join and leave one
// shared entry — each for users of its own, handing equal content in arrays
// of their own, the very Packed the others hand, the content twice, or
// nothing — while pruned readers match. Equal contents race to create the
// entry whenever its last holder has left. Every set a user is given holds
// the shared vector and scores the probe best through it, so a reader that
// sees only whole holdings sees every match at exactly that score, under
// the vector number it has in the set. Once the writers are done the index
// matches a fresh one of the final sets — down to one entry for the shared
// content, whichever writers raced to create it — and when every user
// leaves nothing is left: no entry, no posting, no slot lost.
func TestSharedEntryUnderConcurrentJoinsAndLeaves(t *testing.T) {
	x, y := paperVector("x", 100, 3), paperVector("y", 100, 1)
	doc := vec("common", 1.0)
	oracle := New()
	oracle.SetPacked("probe", []vsm.Packed{x})
	sx := oracle.Match(doc, 0.1)[0].Score
	sets := []func() []vsm.Packed{
		func() []vsm.Packed { return []vsm.Packed{clonePacked(x)} },
		func() []vsm.Packed { return []vsm.Packed{x} },
		func() []vsm.Packed { return []vsm.Packed{y, clonePacked(x)} }, // x is vector 1
		func() []vsm.Packed { return []vsm.Packed{clonePacked(x), x} },
	}
	const writers, usersEach = 4, 3
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1500; i++ {
				user := fmt.Sprintf("w%d-u%d", w, rng.Intn(usersEach))
				if k := rng.Intn(len(sets) + 1); k == len(sets) {
					ix.RemoveUser(user)
				} else {
					ix.SetPacked(user, sets[k]())
				}
				if i%101 == 0 {
					ix.Compact()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			d := vsm.Retain(doc)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, m := range ix.MatchDoc(d, 0.1) {
					if m.Score != sx || m.Vector < 0 || m.Vector > 1 {
						t.Errorf("reader saw %+v; every set scores %v through vector 0 or 1", m, sx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	oracle = New()
	for w := 0; w < writers; w++ {
		for u := 0; u < usersEach; u++ {
			user := fmt.Sprintf("w%d-u%d", w, u)
			set := sets[(w+u)%len(sets)]()
			ix.SetPacked(user, set)
			oracle.SetPacked(user, set)
		}
	}
	got, want := ix.Match(doc, 0.1), oracle.Match(doc, 0.1)
	if !slices.Equal(got, want) {
		t.Errorf("after the writers: Match = %+v, want %+v", got, want)
	}
	if g, w := ix.Size(), oracle.Size(); g != w {
		t.Errorf("after the writers: Size %+v, want %+v", g, w)
	}
	for w := 0; w < writers; w++ {
		for u := 0; u < usersEach; u++ {
			ix.RemoveUser(fmt.Sprintf("w%d-u%d", w, u))
		}
	}
	if st := ix.Size(); st != (Stats{}) {
		t.Errorf("Size after every user left = %+v", st)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.content) != 0 || len(ix.dead) != 0 || len(ix.freeEnt) != len(ix.entries) {
		t.Errorf("%d entry slots, %d free, %d dead, %d named by content: something outlived its holders",
			len(ix.entries), len(ix.freeEnt), len(ix.dead), len(ix.content))
	}
}

// TestJoiningAddsNoPostingAndFewBytes: a holding of an entry that already
// exists adds no posting and at most 32 bytes of live heap — the holder,
// the user's side of it, and their arrays' slack — where a fresh vector of
// the paper's size costs its postings, arrays and entry.
func TestJoiningAddsNoPostingAndFewBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is counted as heap")
	}
	const users, fresh = 4000, 200
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	livePostings := func(ix *Index) int {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return ix.live
	}
	shared := paperVector("shared", 96, 1)
	own := make([][]vsm.Packed, users)
	joined := make([][]vsm.Packed, users)
	for i := range own {
		own[i] = []vsm.Packed{vsm.Pack(vec(fmt.Sprintf("own%d", i), 1.0))}
		joined[i] = []vsm.Packed{own[i][0], clonePacked(shared)}
	}
	news := make([]vsm.Packed, fresh)
	ix := New()
	ix.SetPacked("first", []vsm.Packed{shared})
	for i := range own {
		ix.SetPacked(fmt.Sprintf("u%04d", i), own[i])
	}
	postings := livePostings(ix)
	before := liveHeap()
	for i := range joined {
		ix.SetPacked(fmt.Sprintf("u%04d", i), joined[i])
	}
	perHolding := float64(int64(liveHeap()-before)) / users
	if got := livePostings(ix); got != postings {
		t.Errorf("%d joins added %d postings", users, got-postings)
	}
	// A fresh vector over the same terms, with its own weights: its arrays,
	// its postings and its entry.
	before = liveHeap()
	for i := range news {
		ws := slices.Clone(shared.Weights)
		for k := range ws {
			ws[k] *= 1 + float64(i+1)/1024
		}
		news[i] = vsm.Packed{IDs: slices.Clone(shared.IDs), Weights: ws}
		ix.SetPacked(fmt.Sprintf("new%04d", i), news[i:i+1])
	}
	perFresh := float64(int64(liveHeap()-before)) / fresh
	t.Logf("a join costs %.1f live bytes, a fresh 96-term vector %.0f", perHolding, perFresh)
	if perHolding > 32 {
		t.Errorf("joining an existing entry costs %.1f live bytes per holding, budget 32", perHolding)
	}
	// The control: the same measurement sees what sharing saves.
	if perFresh < 16*max(perHolding, 1) {
		t.Errorf("a fresh 96-term vector costs %.0f live bytes, not 16 times a join's %.1f", perFresh, perHolding)
	}
	runtime.KeepAlive(own)
	runtime.KeepAlive(joined)
	runtime.KeepAlive(news)
	runtime.KeepAlive(ix)
}
