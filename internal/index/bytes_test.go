package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// trainedVectors is the population pubsub's TestResidentBytesPerTerm loads:
// n MM profiles, each trained on six relevant pages of each of two
// second-level categories of the evaluation corpus, as the vectors the
// profiles hold.
func trainedVectors(n int) [][]vsm.Packed {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 10
	pages := corpus.Generate(cfg).Pages
	ncat := cfg.TopCategories * cfg.SubPerTop
	byCat := make([][]vsm.Vector, ncat)
	pipe, stats := text.NewPipeline(), vsm.NewStats()
	terms := make([][]string, len(pages))
	for i, pg := range pages {
		terms[i] = pipe.Terms(pg.HTML)
		stats.Add(terms[i])
	}
	for i, pg := range pages {
		cat := pg.Cat.Top*cfg.SubPerTop + pg.Cat.Sub
		byCat[cat] = append(byCat[cat], vsm.DocumentVector(terms[i], vsm.Bel{Stats: stats}))
	}
	rng := rand.New(rand.NewSource(19))
	users := make([][]vsm.Packed, n)
	for i := range users {
		p := core.NewDefault()
		for k := 0; k < 2; k++ {
			docs := byCat[(i*7+k*37)%ncat]
			for d := 0; d < 6; d++ {
				p.Observe(docs[rng.Intn(len(docs))], filter.Relevant)
			}
		}
		users[i] = p.PackedVectors()
	}
	return users
}

// postingBytes is what the posting arrays hold allocated — capacity, not
// length — beside the live postings they are held for, and the number of
// lists that hold arrays for no posting at all.
func postingBytes(ix *Index) (bytes, live, empty int) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, l := range ix.lists {
		bytes += cap(l.ids)*int(unsafe.Sizeof(l.ids[0])) + cap(l.ws)*int(unsafe.Sizeof(l.ws[0]))
		if len(l.ids) == 0 && cap(l.ids)+cap(l.ws) > 0 {
			empty++
		}
	}
	return bytes, ix.live, empty
}

// TestPostingBytesStayBounded: a posting is six bytes, and what the lists
// hold allocated for it stays under nine — after a load, and after every
// round of a churn in which each user replaces one vector and the posting
// space compacts. (A quarter of headroom and an allocator size class weigh more
// on a short list, so this population of 750, 18 postings a list, reads
// above a large one.) A list that kept the arrays of a tail it had merged
// away, or of postings compacted out of it, is what this is for.
func TestPostingBytesStayBounded(t *testing.T) {
	if sz := unsafe.Sizeof(termList{}); sz > 64 {
		t.Errorf("a term's list header is %d bytes, budget 64", sz)
	}
	if raceEnabled {
		t.Skip("single-threaded, and the race detector changes no capacity")
	}
	users := trainedVectors(750)
	ix := New()
	check := func(when string) {
		t.Helper()
		bytes, live, empty := postingBytes(ix)
		t.Logf("%s: %d postings, %.2f array bytes each", when, live, float64(bytes)/float64(live))
		if bytes > 9*live {
			t.Errorf("%s: %d bytes of posting arrays for %d live postings, budget 9 each", when, bytes, live)
		}
		if empty > 0 {
			t.Errorf("%s: %d lists hold arrays and no posting", when, empty)
		}
	}
	for u, vecs := range users {
		ix.SetPacked(fmt.Sprintf("u%04d", u), vecs)
	}
	check("loaded")
	for round := 1; round <= 20; round++ {
		for u, vecs := range users {
			// Another user's vector, in slices of its own and one weight a
			// bit heavier, so that it does not join that user's entry: a new
			// vector to the index, whose postings move between lists.
			other := users[(u+round)%len(users)]
			p := other[round%len(other)]
			ws := slices.Clone(p.Weights)
			ws[0] = math.Nextafter(ws[0], 2)
			vecs[round%len(vecs)] = vsm.Packed{IDs: slices.Clone(p.IDs), Weights: ws}
			ix.SetPacked(fmt.Sprintf("u%04d", u), vecs)
		}
		ix.Compact()
		check(fmt.Sprintf("round %d", round))
	}
}
