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
// enough to push the busy posting lists through staged→committed rebuilds,
// so matches exercise the blocked, quantized, impact-ordered hot path (a
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
	for si := range ix.shards {
		s := &ix.shards[si]
		s.mu.RLock()
		for _, l := range s.lists {
			if len(l.ids) > 0 {
				hot++
				blocks += l.blocks()
			}
		}
		s.mu.RUnlock()
	}
	if hot == 0 || blocks < 8 {
		t.Fatalf("population too small to exercise the hot path: %d hot lists, %d blocks", hot, blocks)
	}
}

// TestQuantizedBoundsNeverUnderestimate pins the structural invariants the
// pruning proofs rest on: for every committed posting the quantized weight
// over-estimates the exact one (qw·scale ≥ w), block maxima dominate their
// blocks, the committed body is impact-ordered, and maxW dominates every
// live weight, staged or committed. A violated bound would surface as a
// false negative at some θ; checking the representation directly covers
// every θ ∈ (0, 1] at once.
func TestQuantizedBoundsNeverUnderestimate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix, _ := prunePopulation(rng, 900, 30)
	requireHotLists(t, ix)
	// Adversarial weight spread: one list mixing tiny and near-max weights
	// stresses the shared per-term scale.
	for i := 0; i < 200; i++ {
		w := math.Pow(10, -4*rng.Float64())
		ix.SetUser(fmt.Sprintf("adv%03d", i), []vsm.Vector{vec("t000", w, "t001", 1-w)})
	}
	checked := 0
	for si := range ix.shards {
		s := &ix.shards[si]
		s.mu.RLock()
		for term, l := range s.lists {
			s64 := float64(l.scale)
			for i, w := range l.ws {
				if ub := float64(l.qws[i]) * s64; ub < float64(w) {
					t.Fatalf("term %d posting %d: quantized bound %v under-estimates weight %v", term, i, ub, w)
				}
				if i > 0 && l.ws[i-1] < w {
					t.Fatalf("term %d: impact order violated at %d (%v < %v)", term, i, l.ws[i-1], w)
				}
				if w > l.maxW {
					t.Fatalf("term %d: maxW %v < committed weight %v", term, l.maxW, w)
				}
				b := i / blockSize
				if l.bmax[b] < l.qws[i] {
					t.Fatalf("term %d block %d: bmax %d < qw %d", term, b, l.bmax[b], l.qws[i])
				}
				checked++
			}
			for _, w := range l.sws {
				if w > l.maxW {
					t.Fatalf("term %d: maxW %v < staged weight %v", term, l.maxW, w)
				}
				checked++
			}
		}
		s.mu.RUnlock()
	}
	if checked == 0 {
		t.Fatal("no postings checked")
	}

	// Every bound above is a bound on posting weights; what a candidate is
	// rescored with is the entry's exact float64 weight. The two meet in
	// narrowUp: no live posting is below the weight it stands for — on
	// random weights (almost none representable in float32), on weights one
	// float64 ulp above a float32, and, below, on ones float32 cannot hold.
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

// requirePostingsCoverExactWeights checks float64(posting weight) ≥ exact
// Packed weight for every posting of a live entry, committed and staged. A
// NaN weight has no order: its posting must be NaN too.
func requirePostingsCoverExactWeights(t *testing.T, ix *Index) {
	t.Helper()
	checked := 0
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for si := range ix.shards {
		s := &ix.shards[si]
		s.mu.RLock()
		for term, l := range s.lists {
			for _, run := range []struct {
				ids []uint32
				ws  []float32
			}{{l.ids, l.ws}, {l.sids, l.sws}} {
				for k, slot := range run.ids {
					e := &ix.entries[slot]
					if !e.alive || s.dead[slot] {
						continue
					}
					i := slices.Index(e.p.IDs, term)
					if i < 0 {
						t.Fatalf("term %d: a posting of live slot %d, whose vector lacks the term", term, slot)
					}
					exact, posted := e.p.Weights[i], float64(run.ws[k])
					if math.IsNaN(exact) != math.IsNaN(posted) || posted < exact {
						t.Fatalf("term %d slot %d: posting weight %v is below the exact weight %v", term, slot, posted, exact)
					}
					checked++
				}
			}
		}
		s.mu.RUnlock()
	}
	if checked == 0 {
		t.Fatal("no postings checked")
	}
}

// TestNarrowUp pins the float64 → float32 narrowing postings use: the
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

// TestHostileWeightsKeepPostingsAboveExact: the weights of
// TestWeightsBeyondFloat32DoNotHang — beyond float32's range, infinite,
// NaN — through staged tails and rebuilt lists: every posting still covers
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
// brute-force scorer — pruning plus exact rescore is lossless.
func TestMatchPrunedEqualsBruteForceEveryTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix, profiles := prunePopulation(rng, 900, 30)
	requireHotLists(t, ix)
	for trial := 0; trial < 8; trial++ {
		doc := randProbe(rng, 30)
		d := ix.NewDoc(doc)
		for _, theta := range thetaGrid {
			want := bruteMatches(profiles, doc, theta)
			for _, via := range []string{"Match", "MatchDoc"} {
				var got []Match
				if via == "Match" {
					got = ix.Match(doc, theta)
				} else {
					got = ix.MatchDoc(d, theta)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d θ=%v %s: %d matches, want %d", trial, theta, via, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d θ=%v %s [%d]: got %+v, want %+v", trial, theta, via, i, got[i], want[i])
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
	if !ix.PruningEnabled() {
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
					ix.MatchDoc(ix.NewDoc(doc), theta)
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
