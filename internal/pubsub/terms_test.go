package pubsub

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/intern"
	"mmprofile/internal/metrics"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// importProfile is the wire import op: state, an MM profile, imported under
// id. It returns the profile the broker holds, for a test that touches the
// broker from one goroutine to read.
func importProfile(t *testing.T, b *Broker, id string, state []byte) *core.Profile {
	t.Helper()
	sub, err := b.Import(id, "MM", state)
	if err != nil {
		t.Fatal(err)
	}
	return sub.sub.learner
}

// decodeSubscribe is what store hydration and journal replay do: decode a
// serialized profile in full and subscribe it. A vector an earlier profile
// holds is then found by its content, and the profile adopts the shared
// arrays in place of its decoded ones.
func decodeSubscribe(t *testing.T, b *Broker, id string, state []byte) *core.Profile {
	t.Helper()
	p := core.NewDefault()
	if err := p.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(id, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// importPaths are the two ways a serialized profile reaches the broker: a
// vector it already holds is taken by its digest on the one and joined by
// content after a full decode on the other.
var importPaths = []struct {
	name string
	load func(t *testing.T, b *Broker, id string, state []byte) *core.Profile
}{{"import", importProfile}, {"decode+subscribe", decodeSubscribe}}

// TestOneStringPerTerm: two imported profiles that share a term hold one
// string between them, and a page published afterwards whose text stems to
// that term retains the same string in its document vector — the term is
// resident once, whoever refers to it.
func TestOneStringPerTerm(t *testing.T) {
	stem := text.Stem("deliveries")
	state := func(other string) []byte {
		p := core.NewDefault()
		p.Observe(vsm.FromMap(map[string]float64{stem: 1, other: 1}).Normalized(), filter.Relevant)
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	b := New(Options{Threshold: 0.1})
	alice := importProfile(t, b, "alice", state("alpha"))
	bob := importProfile(t, b, "bob", state("beta"))
	termOf := func(p *core.Profile) string {
		for _, term := range p.ProfileVectors()[0].Terms {
			if term == stem {
				return term
			}
		}
		t.Fatalf("profile lost %q", stem)
		return ""
	}
	if unsafe.StringData(termOf(alice)) != unsafe.StringData(termOf(bob)) {
		t.Errorf("two imported profiles hold two copies of %q", stem)
	}

	doc, n := b.Publish("<p>Deliveries delivery delivering: the adaptive dissemination of deliveries to subscribers, measured.</p>")
	if n != 2 {
		t.Fatalf("delivered to %d subscribers, want both", n)
	}
	vec, ok := b.DocumentVector(doc)
	if !ok {
		t.Fatal("published document was not retained")
	}
	for _, term := range vec.Terms {
		if term == stem {
			if unsafe.StringData(term) != unsafe.StringData(termOf(alice)) {
				t.Errorf("the retained document holds its own copy of %q", stem)
			}
			return
		}
	}
	t.Fatalf("document vector %v has no %q", vec.Terms, stem)
}

// trainedStates serializes n MM profiles trained the way perf's match
// population is: each on six relevant pages of each of two second-level
// categories of the evaluation corpus. Users who judge the same page hold
// equal vectors, as perf's do; with own, every page a user judges carries a
// term of that user's too, so no two users hold an equal vector.
func trainedStates(t *testing.T, n int, own bool) [][]byte {
	t.Helper()
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
	states := make([][]byte, n)
	for i := range states {
		p := core.NewDefault()
		for k := 0; k < 2; k++ {
			docs := byCat[(i*7+k*37)%ncat]
			for d := 0; d < 6; d++ {
				doc := docs[rng.Intn(len(docs))]
				if own { // at the page's top weight, so no truncation drops it
					m := map[string]float64{fmt.Sprintf("own%04d", i): slices.Max(doc.Weights)}
					for j, term := range doc.Terms {
						m[term] = doc.Weights[j]
					}
					doc = vsm.FromMap(m).Normalized()
				}
				p.Observe(doc, filter.Relevant)
			}
		}
		var err error
		if states[i], err = p.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	return states
}

// TestResidentBytesPerTerm is the memory budget of the paper's fixed
// 100-term vectors: what one more (vector, term) pair of an imported,
// indexed profile costs in live heap. 250 profiles are loaded first, so
// that the vocabulary, the term table and every posting list exist; the
// next 500 are the measurement. The budget holds for profiles whose
// vectors are all their own ("distinct") — since equal vectors share one
// copy and one index entry, that is the dearest population — and for the
// trained profiles as they are, many of whose vectors are equal. A pair is a term id and a weight in the
// profile (12 B), which the index entry borrows rather than copies, a
// posting (6 B) and slice slack. When every decoded term was its own string
// this read 60 B; sharing the table's strings, 50 B; holding ids, 37 B;
// without the entry's own (id, float32) copy, 28 B; with the posting's
// weight in 16 bits and its arrays grown by quarters, 23 B. The
// pairs are read off mm_profile_resident_pairs, as an operator would read
// them to do the same division on a live server.
func TestResidentBytesPerTerm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is counted as heap")
	}
	for _, own := range []bool{true, false} {
		states := trainedStates(t, 750, own)
		for _, path := range importPaths {
			name := map[bool]string{true: "distinct", false: "as trained"}[own] + ", " + path.name
			perPair := residentBytesPerPair(t, states, path.load)
			if perPair > 24 {
				t.Errorf("%s: an imported profile costs %.1f live bytes per (vector, term) pair, budget 24", name, perPair)
			}
			t.Logf("%s: %.1f live bytes per pair", name, perPair)
		}
	}
}

// residentBytesPerPair loads states[:250], then measures the live heap
// that loading states[250:] adds per (vector, term) pair.
func residentBytesPerPair(t *testing.T, states [][]byte, load func(*testing.T, *Broker, string, []byte) *core.Profile) float64 {
	reg := metrics.NewRegistry()
	b := New(Options{Metrics: reg})
	counted := 0
	loadRange := func(from, to int) (pairs int) {
		before := reg.Snapshot()["mm_profile_resident_pairs"].(float64)
		for i := from; i < to; i++ {
			for _, v := range load(t, b, fmt.Sprintf("u%04d", i), states[i]).ProfileVectors() {
				counted += v.Len()
			}
		}
		gauge := reg.Snapshot()["mm_profile_resident_pairs"].(float64)
		if int(gauge) != counted {
			t.Fatalf("mm_profile_resident_pairs reads %v, the profiles hold %d pairs", gauge, counted)
		}
		return int(gauge - before)
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	loadRange(0, 250)
	before := liveHeap()
	pairs := loadRange(250, 750)
	perPair := float64(liveHeap()-before) / float64(pairs)
	runtime.KeepAlive(states)
	runtime.KeepAlive(b)
	return perPair
}

// TestPingPipelineLeavesTombstonesAlone: the liveness probe mmserver runs
// every second must not do the index's housekeeping for it. Tombstones under
// the compaction thresholds stay until a threshold or an exact Size asks.
func TestPingPipelineLeavesTombstonesAlone(t *testing.T) {
	reg := metrics.NewRegistry()
	b := New(Options{Metrics: reg})
	for i := 0; i < 8; i++ {
		if _, err := b.Subscribe(fmt.Sprintf("u%d", i), trainedMM("shared", fmt.Sprintf("own%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b.Unsubscribe("u3")
	b.Unsubscribe("u5")
	ratio := func() float64 { return reg.Snapshot()["mm_index_tombstone_ratio"].(float64) }
	stale := ratio()
	if stale == 0 {
		t.Fatal("two unsubscribes left no tombstones: nothing for a probe to disturb")
	}
	for beat := 0; beat < 3; beat++ {
		b.PingPipeline()
	}
	if got := ratio(); got != stale {
		t.Errorf("tombstone ratio moved from %v to %v under the liveness probe", stale, got)
	}
	if st := b.IndexStats(); st.Users != 6 {
		t.Errorf("IndexStats reports %d users, want 6", st.Users)
	}
	if got := ratio(); got != 0 {
		t.Errorf("tombstone ratio %v after the exact, compacting IndexStats, want 0", got)
	}
}

// TestIdenticalImportsShareOneEntry: users who import byte-identical
// profiles hold one copy of each vector between them — the index keeps one
// entry per distinct vector, and every profile adopts the index's copy, so
// its own decoded arrays go — and each still exports the bytes it
// imported. Then one user's judgment moves one of its vectors: that vector
// leaves the shared entry for one of its own, while every other holding,
// the other users' included, stays on the shared one. It holds on both
// import paths: the digest's and the full decode's.
func TestIdenticalImportsShareOneEntry(t *testing.T) {
	for _, path := range importPaths {
		t.Run(path.name, func(t *testing.T) { identicalImportsShareOneEntry(t, path.load) })
	}
}

func identicalImportsShareOneEntry(t *testing.T, load func(*testing.T, *Broker, string, []byte) *core.Profile) {
	const n = 8
	state := trainedStates(t, 1, false)[0]
	b := New(Options{Threshold: 0.25})
	profiles := make([]*core.Profile, n)
	for i := range profiles {
		profiles[i] = load(t, b, fmt.Sprintf("u%d", i), state)
	}
	shared := profiles[0].PackedVectors()
	pairs := 0
	for _, p := range shared {
		pairs += p.Len()
	}
	if st := b.IndexStats(); st.Vectors != n*len(shared) || st.Distinct != len(shared) || st.Postings != pairs {
		t.Fatalf("%d imports of a %d-vector profile: index %+v, want %d vectors, %d distinct, %d postings",
			n, len(shared), st, n*len(shared), len(shared), pairs)
	}
	same := func(a, b vsm.Packed) bool { return &a.IDs[0] == &b.IDs[0] && &a.Weights[0] == &b.Weights[0] }
	for i, p := range profiles {
		for k, v := range p.PackedVectors() {
			if !same(v, shared[k]) {
				t.Errorf("u%d's vector %d is a copy of its own, not the shared one", i, k)
			}
		}
		snap, err := b.ExportProfile(fmt.Sprintf("u%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Data, state) {
			t.Errorf("u%d exports other bytes than it imported", i)
		}
	}

	// A page close to vector 0 with one term more: judged relevant, MM
	// folds it into that vector, which moves.
	m := map[string]float64{"sharedimportextra": 0.3}
	for k, id := range shared[0].IDs {
		m[intern.Terms.String(id)] = shared[0].Weights[k]
	}
	doc, _ := b.PublishVector(vsm.FromMap(m).Normalized())
	c0 := profiles[0].Counts()
	if err := b.Feedback("u0", doc, filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if c := profiles[0].Counts(); c.Incorporated != c0.Incorporated+1 || c.Merged != c0.Merged || c.Created != c0.Created {
		t.Fatalf("the judgment took the counts from %+v to %+v; the test wants one incorporation", c0, c)
	}
	moved := 0
	for k, v := range profiles[0].PackedVectors() {
		if !same(v, shared[k]) {
			moved++
			pairs += v.Len()
		}
	}
	if moved != 1 {
		t.Fatalf("%d of u0's vectors left the shared entries, want 1", moved)
	}
	if st := b.IndexStats(); st.Vectors != n*len(shared) || st.Distinct != len(shared)+1 || st.Postings != pairs {
		t.Errorf("after u0's judgment: index %+v, want %d vectors, %d distinct, %d postings", st, n*len(shared), len(shared)+1, pairs)
	}
	for i, p := range profiles[1:] {
		for k, v := range p.PackedVectors() {
			if !same(v, shared[k]) {
				t.Errorf("u%d's vector %d moved with u0's", i+1, k)
			}
		}
		if snap, _ := b.ExportProfile(fmt.Sprintf("u%d", i+1)); !bytes.Equal(snap.Data, state) {
			t.Errorf("u%d's export changed with u0's judgment", i+1)
		}
	}
}
