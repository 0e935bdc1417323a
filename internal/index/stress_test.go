package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mmprofile/internal/vsm"
)

// randUnitVec draws a sparse vector over the given vocabulary and
// unit-normalizes it.
func randUnitVec(rng *rand.Rand, vocab []string, density float64) vsm.Vector {
	m := map[string]float64{}
	for _, t := range vocab {
		if rng.Float64() < density {
			m[t] = rng.Float64() + 0.01
		}
	}
	return vsm.FromMap(m).Normalized()
}

// bruteMatches replicates Match's contract directly on a map of profiles:
// best dot per user (the lowest-numbered vector on a tie), threshold applied,
// sorted by score descending with ties broken by user ascending. Scores are
// the index's exactly: it sums in float64 in the vector's term order, as
// vsm.Dot does.
func bruteMatches(profiles map[string][]vsm.Vector, doc vsm.Vector, threshold float64) []Match {
	var out []Match
	for user, vecs := range profiles {
		best, bestVec := 0.0, -1
		for i, pv := range vecs {
			if pv.IsZero() {
				continue
			}
			if s := vsm.Dot(pv, doc); s > best {
				best, bestVec = s, i
			}
		}
		if bestVec >= 0 && best >= threshold && best > 0 {
			out = append(out, Match{User: user, Vector: bestVec, Score: best})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].User < out[j].User
	})
	return out
}

// TestMatchPropertyEquivalence is the property test of the index rewrite:
// for random profile populations and random documents, Match must return
// exactly the users a brute-force scan returns, with identical ordering and
// identical scores.
func TestMatchPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	for round := 0; round < 10; round++ {
		ix := New()
		profiles := map[string][]vsm.Vector{}
		nUsers := 5 + rng.Intn(30)
		for u := 0; u < nUsers; u++ {
			user := fmt.Sprintf("u%02d", u)
			n := 1 + rng.Intn(3)
			vecs := make([]vsm.Vector, n)
			for v := range vecs {
				vecs[v] = randUnitVec(rng, vocab, 0.25)
			}
			profiles[user] = vecs
			ix.SetUser(user, vecs)
		}
		// Churn: replace some users, remove others, mirror in the reference.
		for u := 0; u < nUsers/3; u++ {
			user := fmt.Sprintf("u%02d", rng.Intn(nUsers))
			if rng.Intn(2) == 0 {
				vecs := []vsm.Vector{randUnitVec(rng, vocab, 0.25)}
				profiles[user] = vecs
				ix.SetUser(user, vecs)
			} else {
				delete(profiles, user)
				ix.RemoveUser(user)
			}
		}
		for trial := 0; trial < 20; trial++ {
			doc := randUnitVec(rng, vocab, 0.2)
			if doc.IsZero() {
				continue
			}
			threshold := rng.Float64() * 0.5
			got := ix.Match(doc, threshold)
			want := bruteMatches(profiles, doc, threshold)
			if len(got) != len(want) {
				t.Fatalf("round %d trial %d: %d matches, want %d", round, trial, len(got), len(want))
			}
			for i := range got {
				if got[i].User != want[i].User {
					t.Fatalf("round %d trial %d pos %d: user %s, want %s (ordering)",
						round, trial, i, got[i].User, want[i].User)
				}
				if got[i].Score != want[i].Score {
					t.Fatalf("round %d trial %d user %s: score %v, want %v",
						round, trial, got[i].User, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestConcurrentStress exercises every mutating operation concurrently with
// matching — it exists to run under -race, and finishes with a consistency
// check of the surviving state against brute force.
func TestConcurrentStress(t *testing.T) {
	ix := New()
	vocab := make([]string, 25)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("s%02d", i)
	}
	const writers = 4
	const readers = 4
	const iters = 300

	// Each writer owns a disjoint set of users, so the final state is
	// deterministic per writer and can be reconstructed afterwards.
	finals := make([]map[string][]vsm.Vector, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			state := map[string][]vsm.Vector{}
			for i := 0; i < iters; i++ {
				user := fmt.Sprintf("w%d-u%d", w, rng.Intn(6))
				switch rng.Intn(4) {
				case 0: // SetUser with 1–3 vectors
					n := 1 + rng.Intn(3)
					vecs := make([]vsm.Vector, n)
					for v := range vecs {
						vecs[v] = randUnitVec(rng, vocab, 0.3)
					}
					state[user] = vecs
					ix.SetUser(user, vecs)
				case 1: // one vector replaced, or added past the end
					pv := randUnitVec(rng, vocab, 0.3)
					slot := rng.Intn(3)
					cur := append([]vsm.Vector(nil), state[user]...)
					for len(cur) <= slot {
						cur = append(cur, vsm.Vector{})
					}
					cur[slot] = pv
					state[user] = cur
					ix.SetUser(user, cur)
				case 2: // one vector dropped, the others keep their numbers
					slot := rng.Intn(3)
					if cur := state[user]; slot < len(cur) {
						cur = append([]vsm.Vector(nil), cur...)
						cur[slot] = vsm.Vector{}
						state[user] = cur
					}
					ix.SetUser(user, state[user])
				case 3:
					delete(state, user)
					ix.RemoveUser(user)
				}
			}
			// Drop users whose every slot is zero — they are gone from the
			// index too.
			for user, vecs := range state {
				live := false
				for _, v := range vecs {
					if !v.IsZero() {
						live = true
					}
				}
				if !live {
					delete(state, user)
				}
			}
			finals[w] = state
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < iters; i++ {
				doc := randUnitVec(rng, vocab, 0.2)
				if doc.IsZero() {
					continue
				}
				for _, m := range ix.Match(doc, 0.1) {
					if m.Score < 0.1 || m.User == "" {
						t.Errorf("bad match under concurrency: %+v", m)
					}
				}
				if i%20 == 0 {
					ix.Size()
				}
				if i%50 == 0 {
					ix.Compact()
				}
			}
		}(r)
	}
	wg.Wait()

	// Final consistency: the settled index must agree with the union of the
	// writers' final states on every probe.
	profiles := map[string][]vsm.Vector{}
	for _, state := range finals {
		for user, vecs := range state {
			profiles[user] = vecs
		}
	}
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 30; trial++ {
		doc := randUnitVec(rng, vocab, 0.2)
		if doc.IsZero() {
			continue
		}
		got := ix.Match(doc, 0.2)
		want := bruteMatches(profiles, doc, 0.2)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d\n got=%+v\nwant=%+v", trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d pos %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
	st := ix.Size()
	if st.Users != len(profiles) {
		t.Errorf("Size.Users = %d, want %d", st.Users, len(profiles))
	}
}

// TestSetUserAtomicity checks the satellite fix directly: a reader matching
// while a writer flips a user between two equally-matching profiles must
// always see exactly one of them — never a window with the user absent.
func TestSetUserAtomicity(t *testing.T) {
	ix := New()
	a := []vsm.Vector{vec("cat", 1.0, "dog", 1.0)}
	b := []vsm.Vector{vec("cat", 1.0, "fish", 1.0)}
	ix.SetUser("alice", a)
	doc := vec("cat", 1.0)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			if i%2 == 0 {
				ix.SetUser("alice", b)
			} else {
				ix.SetUser("alice", a)
			}
		}
	}()
	misses := 0
	for {
		select {
		case <-done:
			if misses > 0 {
				t.Fatalf("user vanished during SetUser %d times", misses)
			}
			return
		default:
			ms := ix.Match(doc, 0.5)
			if len(ms) != 1 || ms[0].User != "alice" {
				misses++
			}
		}
	}
}
