package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mmprofile/internal/vsm"
)

// prunePopulation builds an index plus a brute-force mirror that is large
// enough to push the busy posting lists through rebuilds, so matches
// exercise the blocked, impact-ordered hot path (a
// vocabulary of vocab terms over nUsers users with up to three vectors
// each yields several blocks per term).
func prunePopulation(rng *rand.Rand, nUsers, vocab int) (*Index, map[string][]vsm.Vector) {
	terms := make([]string, vocab)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%03d", i)
	}
	randVec := func() vsm.Vector {
		m := map[string]float64{}
		n := 3 + rng.Intn(8)
		for k := 0; k < n; k++ {
			// Zipf-ish skew: low term ids are far more common, giving a mix
			// of long hot lists and short cold ones.
			ti := int(float64(vocab) * rng.Float64() * rng.Float64())
			if ti >= vocab {
				ti = vocab - 1
			}
			m[terms[ti]] = rng.Float64() + 0.01
		}
		return vsm.FromMap(m).Normalized()
	}
	ix := New()
	profiles := map[string][]vsm.Vector{}
	for u := 0; u < nUsers; u++ {
		user := fmt.Sprintf("u%04d", u)
		n := 1 + rng.Intn(3)
		for v := 0; v < n; v++ {
			profiles[user] = append(profiles[user], randVec())
		}
		ix.SetUser(user, profiles[user])
	}
	return ix, profiles
}

func randProbe(rng *rand.Rand, vocab int) vsm.Vector {
	m := map[string]float64{}
	n := 3 + rng.Intn(10)
	for k := 0; k < n; k++ {
		m[fmt.Sprintf("t%03d", rng.Intn(vocab))] = rng.Float64() + 0.01
	}
	return vsm.FromMap(m).Normalized()
}

// requireHotLists asserts the population actually built blocked lists —
// otherwise the pruning tests would silently run on the cold path only.
func requireHotLists(t *testing.T, ix *Index) {
	t.Helper()
	hot, blocks := 0, 0
	ix.mu.RLock()
	for _, l := range ix.lists {
		if l.sorted > 0 {
			hot++
			blocks += l.blocks()
		}
	}
	ix.mu.RUnlock()
	if hot == 0 || blocks < 8 {
		t.Fatalf("population too small to exercise the hot path: %d hot lists, %d blocks", hot, blocks)
	}
}

// TestQuantizedBoundsNeverUnderestimate pins the structural invariants the
// pruning proofs rest on: the prefix of every list is impact-ordered, so a
// block's head dominates its block and every block behind it, and maxW
// dominates every weight, sorted or in the tail. A violated bound would
// surface as a false negative at some θ; checking the representation
// directly covers every θ ∈ (0, 1] at once.
func TestQuantizedBoundsNeverUnderestimate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix, _ := prunePopulation(rng, 900, 30)
	requireHotLists(t, ix)
	// Adversarial weight spread: one list mixing tiny and near-max weights,
	// which a 16-bit weight must round up at every magnitude alike.
	for i := 0; i < 200; i++ {
		w := math.Pow(10, -4*rng.Float64())
		ix.SetUser(fmt.Sprintf("adv%03d", i), []vsm.Vector{vec("t000", w, "t001", 1-w)})
	}
	checked := 0
	ix.mu.RLock()
	for term, l := range ix.lists {
		if l.sorted > len(l.ids) || len(l.ws) != len(l.ids) {
			t.Fatalf("term %d: %d slots, %d weights, %d of them sorted", term, len(l.ids), len(l.ws), l.sorted)
		}
		for k, h := range l.ws {
			w := decode(h)
			if k < l.sorted {
				if k > 0 && decode(l.ws[k-1]) < w {
					t.Fatalf("term %d: impact order violated at %d (%v < %v)", term, k, decode(l.ws[k-1]), w)
				}
				if head := decode(l.ws[k/blockSize*blockSize]); head < w {
					t.Fatalf("term %d block %d: head %v < weight %v", term, k/blockSize, head, w)
				}
			}
			if w > l.maxW {
				t.Fatalf("term %d: maxW %v < weight %v at %d (%d sorted)", term, l.maxW, w, k, l.sorted)
			}
			checked++
		}
	}
	ix.mu.RUnlock()
	if checked == 0 {
		t.Fatal("no postings checked")
	}

	// Every bound above is a bound on posting weights; what a candidate is
	// rescored with is the entry's exact float64 weight. The two meet in
	// up16: no live posting is below the weight it stands for — on random
	// weights (almost none representable in 16 bits), on weights one float64
	// ulp above a float32, and, below, on ones float32 cannot hold.
	for i := 0; i < 100; i++ {
		f := float64(float32(0.2 + 0.6*rng.Float64()))
		ix.SetPacked(fmt.Sprintf("ulp%03d", i), []vsm.Packed{vsm.Pack(vsm.Vector{
			Terms:   []string{"t000", "t002"},
			Weights: []float64{math.Nextafter(f, 1), math.Nextafter(f, 0)},
		})})
	}
	requirePostingsCoverExactWeights(t, ix)
	ix.Optimize()
	requirePostingsCoverExactWeights(t, ix)
}

// requirePostingsCoverExactWeights checks decoded posting weight ≥ exact
// Packed weight for every posting of a live entry, sorted and in the tail.
// A NaN weight has no order: its posting must be NaN too.
func requirePostingsCoverExactWeights(t *testing.T, ix *Index) {
	t.Helper()
	checked := 0
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for term, l := range ix.lists {
		for k, slot := range l.ids {
			e := &ix.entries[slot]
			if !e.alive() || slices.Contains(ix.dead, slot) {
				continue
			}
			i := slices.Index(e.p.IDs, uint32(term))
			if i < 0 {
				t.Fatalf("term %d: a posting of live slot %d, whose vector lacks the term", term, slot)
			}
			exact, posted := e.p.Weights[i], float64(decode(l.ws[k]))
			if math.IsNaN(exact) != math.IsNaN(posted) || posted < exact {
				t.Fatalf("term %d slot %d: posting weight %v is below the exact weight %v", term, slot, posted, exact)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no postings checked")
	}
}

// TestNarrowUp pins the float64 → float32 narrowing up16 starts from: the
// nearest float32 that is not below.
func TestNarrowUp(t *testing.T) {
	huge := math.Float64frombits(0x4800000000000000) // 6.8e38 > MaxFloat32
	for _, w := range []float64{0, 0.5, 0.1, -0.1, 1.0 / 3, 1e-50, -1e-50, math.MaxFloat32, huge, -huge, math.Inf(1), math.Inf(-1)} {
		f := narrowUp(w)
		if float64(f) < w {
			t.Errorf("narrowUp(%v) = %v, below it", w, f)
		}
		if below := math.Nextafter32(f, float32(math.Inf(-1))); float64(below) >= w && !math.IsInf(w, -1) {
			t.Errorf("narrowUp(%v) = %v, but %v is not below it either", w, f, below)
		}
	}
	if f := narrowUp(math.NaN()); f == f {
		t.Errorf("narrowUp(NaN) = %v", f)
	}
}

// TestUp16RoundsUpAndNoFurther pins the 16-bit posting weight over every
// 16-bit pattern, its float64 neighbours on both sides, a million random
// float64s and the edges of every range: the decoded weight is never below
// the exact one, no 16-bit pattern lies in between, a NaN stays a NaN, and
// both up16 and the integer order rebuild sorts by (impact) are monotone in
// the weight.
func TestUp16RoundsUpAndNoFurther(t *testing.T) {
	var byImpact [1 << 16]uint16 // every pattern, in impact order
	for p := 0; p < 1<<16; p++ {
		byImpact[int(impact(uint16(p)))+1<<15] = uint16(p)
	}
	for i := 1; i < len(byImpact); i++ {
		if lo, hi := decode(byImpact[i-1]), decode(byImpact[i]); lo > hi {
			t.Fatalf("impact orders %#04x (%v) before %#04x (%v)", byImpact[i-1], lo, byImpact[i], hi)
		}
	}
	check := func(w float64) uint16 {
		h := up16(w)
		got := float64(decode(h))
		if w != w {
			if got == got {
				t.Fatalf("up16(NaN) = %#04x, which decodes to %v", h, got)
			}
			return h
		}
		if !(got >= w) {
			t.Fatalf("up16(%v) = %#04x decodes to %v, below it", w, h, got)
		}
		if i := int(impact(h)) + 1<<15; i > 0 {
			if below := float64(decode(byImpact[i-1])); below >= w && below < got {
				t.Fatalf("up16(%v) = %#04x (%v), but %#04x (%v) is not below it either", w, h, got, byImpact[i-1], below)
			}
		}
		if w >= 0x1p-126 && !math.IsInf(got, 1) && got-w > w/128 { // float32's normal range
			t.Fatalf("up16(%v) decodes to %v, more than 2⁻⁷ above", w, got)
		}
		return h
	}
	for p := 0; p < 1<<16; p++ {
		x := float64(decode(uint16(p)))
		if h := check(x); x == x && h != uint16(p) {
			t.Fatalf("up16 of the value of %#04x is %#04x", p, h)
		}
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(3))
	ws := []float64{0, 5e-324, -5e-324, math.MaxFloat32, -math.MaxFloat32,
		math.Ldexp(1, 960), -math.Ldexp(1, 960), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 1_000_000; i++ {
		switch i % 3 {
		case 0: // a profile weight
			ws = append(ws, rng.Float64())
		case 1: // any float32, widened and nudged off it
			ws = append(ws, math.Nextafter(float64(math.Float32frombits(rng.Uint32())), rng.NormFloat64()))
		default: // any float64, most beyond float32 on one side or the other
			ws = append(ws, math.Float64frombits(rng.Uint64()))
		}
	}
	check(math.NaN())
	ws = slices.DeleteFunc(ws, func(w float64) bool { return w != w })
	slices.Sort(ws)
	for i, w := range ws {
		h := check(w)
		if i > 0 && impact(h) < impact(up16(ws[i-1])) {
			t.Fatalf("up16 is not monotone: %v → %#04x, %v → %#04x", ws[i-1], up16(ws[i-1]), w, h)
		}
	}
}

// TestHostileWeightsKeepPostingsAboveExact: the weights of
// TestWeightsBeyondFloat32DoNotHang — beyond float32's range, infinite,
// NaN — through tails and rebuilt lists: every posting still covers
// its exact weight, Match still returns, and the honest profile that shares
// a term with them still matches with its exact score.
func TestHostileWeightsKeepPostingsAboveExact(t *testing.T) {
	huge := math.Float64frombits(0x4800000000000000)
	ix := New()
	honest := vsm.Pack(vec("shared", 1.0, "own", 1.0))
	ix.SetPacked("honest", []vsm.Packed{honest})
	for name, w := range map[string]float64{"huge": huge, "-huge": -huge, "+Inf": math.Inf(1), "-Inf": math.Inf(-1), "NaN": math.NaN()} {
		for u := 0; u < 2*blockSize+1; u++ {
			ix.SetPacked(fmt.Sprintf("%s-%d", name, u), []vsm.Packed{vsm.Pack(vsm.Vector{
				Terms: []string{"hostile~" + name, "shared"}, Weights: []float64{w, 0.5},
			})})
		}
	}
	requirePostingsCoverExactWeights(t, ix)
	ix.Optimize()
	requirePostingsCoverExactWeights(t, ix)
	doc := vec("shared", 1.0, "own", 1.0)
	want := vsm.Dot(honest.Vector(), doc)
	for _, pruning := range []bool{true, false} {
		ix.SetPruning(pruning)
		found := false
		for _, m := range ix.Match(doc, 0.9) {
			if m.User == "honest" {
				found = true
				if m.Score != want {
					t.Errorf("pruning %v: honest scores %v beside the hostile weights, want %v", pruning, m.Score, want)
				}
			}
		}
		if !found {
			t.Errorf("pruning %v: the honest profile no longer matches", pruning)
		}
	}
}

// thetaGrid spans (0, 1]: the thresholds the every-θ properties run at.
var thetaGrid = []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0}

// TestMatchPrunedEqualsBruteForceEveryTheta is the pruning property test:
// at every θ on a grid spanning (0, 1], Match and MatchDoc with pruning on
// must return exactly the users, vectors, ordering and scores (==) of the
// brute-force scorer — pruning plus exact rescore is lossless. It holds on
// a population of distinct vectors and on one where most vectors are
// shared entries, held by several users and twice by some.
func TestMatchPrunedEqualsBruteForceEveryTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix, profiles := prunePopulation(rng, 900, 30)
	dix, packed := packedPopulation(rng, 300, 30, 3)
	dprofiles := map[string][]vsm.Vector{}
	for user, vecs := range packed {
		for _, p := range vecs {
			dprofiles[user] = append(dprofiles[user], p.Vector())
		}
	}
	for _, pop := range []struct {
		name     string
		ix       *Index
		profiles map[string][]vsm.Vector
	}{{"distinct", ix, profiles}, {"duplicated", dix, dprofiles}} {
		requireHotLists(t, pop.ix)
		for trial := 0; trial < 8; trial++ {
			doc := randProbe(rng, 30)
			d := vsm.Retain(doc)
			for _, theta := range thetaGrid {
				want := bruteMatches(pop.profiles, doc, theta)
				for _, via := range []string{"Match", "MatchDoc"} {
					var got []Match
					if via == "Match" {
						got = pop.ix.Match(doc, theta)
					} else {
						got = pop.ix.MatchDoc(d, theta)
					}
					if len(got) != len(want) {
						t.Fatalf("%s trial %d θ=%v %s: %d matches, want %d", pop.name, trial, theta, via, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s trial %d θ=%v %s [%d]: got %+v, want %+v", pop.name, trial, theta, via, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestPruningOffMatchesPruningOn pins SetPruning(false), the reference
// scan: the toggle changes the work done, never the answer.
func TestPruningOffMatchesPruningOn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ix, _ := prunePopulation(rng, 600, 25)
	requireHotLists(t, ix)
	if ix.pruneOff.Load() {
		t.Fatal("pruning should default to on")
	}
	for trial := 0; trial < 10; trial++ {
		doc := randProbe(rng, 25)
		theta := 0.05 + 0.6*rng.Float64()
		on := ix.Match(doc, theta)
		ix.SetPruning(false)
		off := ix.Match(doc, theta)
		ix.SetPruning(true)
		if len(on) != len(off) {
			t.Fatalf("trial %d θ=%v: pruned %d matches, unpruned %d", trial, theta, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("trial %d θ=%v [%d]: pruned %+v, unpruned %+v", trial, theta, i, on[i], off[i])
			}
		}
	}
}

// TestPruneStatsProgress checks the observability side: pruned matches at a
// selective θ must record skipped blocks or pruned terms, and disabling
// pruning must stop the skip counters while scanning more postings.
func TestPruneStatsProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ix, _ := prunePopulation(rng, 900, 30)
	requireHotLists(t, ix)
	probes := make([]vsm.Vector, 20)
	for i := range probes {
		probes[i] = randProbe(rng, 30)
	}

	before := ix.PruneStats()
	for _, doc := range probes {
		ix.Match(doc, 0.5)
	}
	after := ix.PruneStats()
	if after.PostingsScanned == before.PostingsScanned {
		t.Error("pruned matches recorded no scanned postings")
	}
	if after.BlocksSkipped == before.BlocksSkipped && after.TermsPruned == before.TermsPruned {
		t.Error("selective θ=0.5 matches skipped no blocks and pruned no terms")
	}

	ix.SetPruning(false)
	defer ix.SetPruning(true)
	b2 := ix.PruneStats()
	for _, doc := range probes {
		ix.Match(doc, 0.5)
	}
	a2 := ix.PruneStats()
	if a2.BlocksSkipped != b2.BlocksSkipped || a2.TermsPruned != b2.TermsPruned || a2.Rescores != b2.Rescores {
		t.Errorf("pruning off still skipped work: %+v vs %+v", a2, b2)
	}
	pruned := after.PostingsScanned - before.PostingsScanned
	full := a2.PostingsScanned - b2.PostingsScanned
	if pruned >= full {
		t.Errorf("pruned matches scanned %d postings, unpruned %d — pruning saved nothing", pruned, full)
	}
}

// TestPruneStressConcurrent is the -race stress for the pruning paths:
// writers churn profiles (forcing staged tails, rebuilds, tombstones, and
// compactions) while readers match at selective thresholds through the
// blocked hot path; a final quiescent sweep must agree with brute force at
// every tested θ.
func TestPruneStressConcurrent(t *testing.T) {
	const (
		writers = 4
		readers = 4
		ops     = 120
		vocab   = 24
	)
	seedRng := rand.New(rand.NewSource(23))
	ix, profiles := prunePopulation(seedRng, 500, vocab)
	requireHotLists(t, ix)
	var mu sync.Mutex // guards profiles

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < ops; i++ {
				// Each writer owns a disjoint user slice so the mirror map
				// stays consistent with the index without cross-writer races.
				user := fmt.Sprintf("u%04d", w+writers*rng.Intn(500/writers))
				switch rng.Intn(5) {
				case 0:
					mu.Lock()
					delete(profiles, user)
					mu.Unlock()
					ix.RemoveUser(user)
				default:
					n := 1 + rng.Intn(3)
					vecs := make([]vsm.Vector, n)
					for v := range vecs {
						vecs[v] = randProbe(rng, vocab)
					}
					mu.Lock()
					profiles[user] = vecs
					mu.Unlock()
					ix.SetUser(user, vecs)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < ops; i++ {
				doc := randProbe(rng, vocab)
				theta := 0.1 + 0.5*rng.Float64()
				ms := ix.Match(doc, theta)
				for _, m := range ms {
					if m.Score < theta {
						t.Errorf("match below threshold: %+v < %v", m, theta)
					}
				}
				if i%20 == 0 {
					ix.MatchDoc(vsm.Retain(doc), theta)
				}
			}
		}(r)
	}
	wg.Wait()

	ix.Compact()
	for _, theta := range []float64{0.05, 0.25, 0.5, 0.75} {
		doc := randProbe(seedRng, vocab)
		got := ix.Match(doc, theta)
		want := bruteMatches(profiles, doc, theta)
		if len(got) != len(want) {
			t.Fatalf("post-stress θ=%v: %d matches, want %d", theta, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("post-stress θ=%v [%d]: got %+v, want %+v", theta, i, got[i], want[i])
			}
		}
	}
}
