package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/vsm"
)

func vec(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

func TestMatchBasic(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0, "dog", 1.0)})
	ix.SetUser("bob", []vsm.Vector{vec("stock", 1.0, "bond", 1.0)})

	doc := vec("cat", 1.0)
	ms := ix.Match(doc, 0)
	if len(ms) != 1 || ms[0].User != "alice" {
		t.Fatalf("Match = %+v", ms)
	}
	if want := vsm.Dot(vec("cat", 1.0, "dog", 1.0), doc); ms[0].Score != want {
		t.Errorf("score = %v, want cosine %v", ms[0].Score, want)
	}
}

func TestMatchPicksBestVectorPerUser(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0), vec("cat", 1.0, "dog", 1.0, "bird", 1.0)})
	doc := vec("cat", 1.0)
	ms := ix.Match(doc, 0)
	if len(ms) != 1 {
		t.Fatalf("expected one match per user, got %+v", ms)
	}
	if ms[0].Vector != 0 {
		t.Errorf("best vector = %d, want 0 (the exact match)", ms[0].Vector)
	}
	if math.Abs(ms[0].Score-1) > 1e-9 {
		t.Errorf("score = %v, want 1", ms[0].Score)
	}
}

func TestMatchThreshold(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0, "dog", 1.0, "bird", 1.0, "fish", 1.0)})
	doc := vec("cat", 1.0) // cosine = 0.5
	if got := ix.Match(doc, 0.6); len(got) != 0 {
		t.Errorf("threshold not applied: %+v", got)
	}
	if got := ix.Match(doc, 0.4); len(got) != 1 {
		t.Errorf("match below threshold lost: %+v", got)
	}
}

func TestMatchOrdering(t *testing.T) {
	ix := New()
	ix.SetUser("low", []vsm.Vector{vec("cat", 1.0, "a", 1.0, "b", 1.0, "c", 1.0)})
	ix.SetUser("high", []vsm.Vector{vec("cat", 1.0)})
	ms := ix.Match(vec("cat", 1.0), 0)
	if len(ms) != 2 || ms[0].User != "high" || ms[1].User != "low" {
		t.Errorf("ordering wrong: %+v", ms)
	}
}

// TestSetUserZeroVectorLeavesItsNumberEmpty: a zero vector takes no entry
// and no postings, the vectors after it keep their numbers, and a set of
// nothing but zero vectors is no user at all.
func TestSetUserZeroVectorLeavesItsNumberEmpty(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0), {}, vec("dog", 1.0)})
	if st := ix.Size(); st.Vectors != 2 || st.Users != 1 || st.Terms != 2 {
		t.Errorf("Size = %+v", st)
	}
	if ms := ix.Match(vec("dog", 1.0), 0); len(ms) != 1 || ms[0].Vector != 2 {
		t.Errorf("the vector after the zero one: %+v, want vector 2", ms)
	}
	ix.SetUser("alice", []vsm.Vector{{}})
	if st := ix.Size(); st != (Stats{}) {
		t.Errorf("Size after a set of one zero vector = %+v", st)
	}
}

// TestRemoveAndRemoveUser: a vector leaves when the user's next set lacks
// it, the others keep their numbers, and RemoveUser takes the rest.
func TestRemoveAndRemoveUser(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0), vec("dog", 1.0)})
	ix.SetUser("bob", []vsm.Vector{vec("cat", 1.0)})

	ix.SetUser("alice", []vsm.Vector{{}, vec("dog", 1.0)})
	ms := ix.Match(vec("cat", 1.0), 0)
	if len(ms) != 1 || ms[0].User != "bob" {
		t.Errorf("the dropped vector still matches: %+v", ms)
	}
	if ms := ix.Match(vec("dog", 1.0), 0); len(ms) != 1 || ms[0].User != "alice" || ms[0].Vector != 1 {
		t.Errorf("the vector beside the dropped one: %+v, want alice's vector 1", ms)
	}
	ix.RemoveUser("alice")
	if got := ix.Match(vec("dog", 1.0), 0); len(got) != 0 {
		t.Errorf("RemoveUser left matches: %+v", got)
	}
	// Removing the unknown is a no-op.
	ix.SetUser("nobody", nil)
	ix.RemoveUser("nobody")
	if st := ix.Size(); st.Users != 1 || st.Vectors != 1 {
		t.Errorf("Size = %+v", st)
	}
}

func TestSetUser(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0), vec("dog", 1.0)})
	if st := ix.Size(); st.Vectors != 2 {
		t.Fatalf("Size = %+v", st)
	}
	ix.SetUser("alice", []vsm.Vector{vec("stock", 1.0)})
	if got := ix.Match(vec("cat", 1.0), 0); len(got) != 0 {
		t.Errorf("SetUser left stale vectors: %+v", got)
	}
	if got := ix.Match(vec("stock", 1.0), 0); len(got) != 1 {
		t.Errorf("SetUser vectors missing: %+v", got)
	}
	if st := ix.Size(); st.Vectors != 1 || st.Users != 1 || st.Postings != 1 {
		t.Errorf("Size after the replacement = %+v", st)
	}
}

// TestMatchAgainstBruteForce cross-checks the index against direct cosine
// computation on random data.
func TestMatchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	terms := make([]string, 30)
	for i := range terms {
		terms[i] = fmt.Sprintf("t%02d", i)
	}
	randVec := func() vsm.Vector {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.3 {
				m[tm] = rng.Float64() + 0.01
			}
		}
		return vsm.FromMap(m).Normalized()
	}
	ix := New()
	profiles := map[string][]vsm.Vector{}
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("u%02d", u)
		n := 1 + rng.Intn(4)
		for v := 0; v < n; v++ {
			profiles[user] = append(profiles[user], randVec())
		}
		ix.SetUser(user, profiles[user])
	}
	for trial := 0; trial < 50; trial++ {
		doc := randVec()
		if doc.IsZero() {
			continue
		}
		got := ix.Match(doc, 0.25)
		want := map[string]float64{}
		for user, vecs := range profiles {
			best := 0.0
			for _, pv := range vecs {
				if s := vsm.Dot(pv, doc); s > best {
					best = s
				}
			}
			if best >= 0.25 {
				want[user] = best
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d matches, want %d", trial, len(got), len(want))
		}
		for _, m := range got {
			if w, ok := want[m.User]; !ok || w != m.Score {
				t.Fatalf("trial %d: user %s score %v, want %v", trial, m.User, m.Score, w)
			}
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user%d", g)
			var vecs [3]vsm.Vector
			for i := 0; i < 200; i++ {
				vecs[i%3] = vec("cat", 1.0, fmt.Sprintf("t%d", i%7), 0.5)
				ix.SetUser(user, vecs[:])
				ix.Match(vec("cat", 1.0), 0.1)
				if i%50 == 0 {
					ix.Size()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := ix.Size(); st.Users != 8 {
		t.Errorf("Size after concurrent writes = %+v", st)
	}
}

func TestPostingCleanup(t *testing.T) {
	ix := New()
	ix.SetUser("a", []vsm.Vector{vec("unique", 1.0)})
	ix.SetUser("a", nil)
	if st := ix.Size(); st.Terms != 0 || st.Postings != 0 {
		t.Errorf("postings leaked: %+v", st)
	}
}

// TestWeightsBeyondFloat32DoNotHang: a float64 weight above MaxFloat32 is
// +Inf once narrowed. When the 64th such posting of a term made its list
// rebuild, the rebuild used to look for a quantization scale with
// 255·scale ≥ +Inf, one ulp at a time, for ever, holding the posting write
// lock. The decoders now refuse such weights, but SetUser and SetPacked are
// exported: they must return whatever they are given, and Match must still
// answer.
func TestWeightsBeyondFloat32DoNotHang(t *testing.T) {
	huge := math.Float64frombits(0x4800000000000000) // 6.8e38
	for name, w := range map[string]float64{"huge": huge, "-huge": -huge, "+Inf": math.Inf(1), "NaN": math.NaN()} {
		done := make(chan []Match)
		go func() {
			ix := New()
			hostile := vsm.Vector{Terms: []string{"hostile~" + name, "shared"}, Weights: []float64{w, 0.5}}
			for u := 0; u < 2*blockSize+1; u++ {
				if u%2 == 0 {
					ix.SetUser(fmt.Sprintf("u%d", u), []vsm.Vector{hostile})
				} else {
					ix.SetPacked(fmt.Sprintf("u%d", u), []vsm.Packed{vsm.Pack(hostile)})
				}
			}
			ix.SetUser("honest", []vsm.Vector{vec("shared", 1.0)})
			ix.Optimize()
			ix.Match(vsm.Vector{Terms: []string{"hostile~" + name}, Weights: []float64{1}}, 0.25)
			done <- ix.Match(vec("shared", 1.0), 0.9)
		}()
		select {
		case ms := <-done:
			found := false
			for _, m := range ms {
				found = found || m.User == "honest"
			}
			if !found {
				t.Errorf("%s: the well-formed profile beside the hostile ones no longer matches: %+v", name, ms)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the index did not come back from %d postings of that weight", name, 2*blockSize+1)
		}
	}
}
