package pubsub

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/intern"
	"mmprofile/internal/vsm"
)

// holdsNothing is a vsm.Source that has seen nothing: decoding against it
// decodes every vector and names each.
type holdsNothing struct{}

func (holdsNothing) Named(vsm.Digest) (vsm.Packed, bool) { return vsm.Packed{}, false }

// digestsOf returns the digest of each vector's bytes in state, in order.
func digestsOf(t *testing.T, state []byte) []vsm.Digest {
	t.Helper()
	names, err := core.NewDefault().UnmarshalFrom(state, holdsNothing{})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// checkExports fails unless every user exports state.
func checkExports(t *testing.T, b *Broker, state []byte, users ...string) {
	t.Helper()
	for _, u := range users {
		snap, err := b.ExportProfile(u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Data, state) {
			t.Errorf("%s exports other bytes than were imported", u)
		}
	}
}

// checkMatches holds b's index to itself unpruned and to a fresh broker of
// the same profiles, subscribed from UnmarshalBinary, on documents made of
// each vector's terms: same users, same scores, same vector numbers.
func checkMatches(t *testing.T, b *Broker, state []byte, users ...string) {
	t.Helper()
	oracle := New(Options{})
	for _, u := range users {
		p := core.NewDefault()
		if err := p.UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Subscribe(u, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range oracle.reg.subs[users[0]].learner.ProfileVectors() {
		doc := vsm.Vector{Terms: v.Terms[:len(v.Terms)/2], Weights: v.Weights[:len(v.Terms)/2]}
		pruned := b.idx.Match(doc, 0.1)
		b.idx.SetPruning(false)
		brute := b.idx.Match(doc, 0.1)
		b.idx.SetPruning(true)
		if want := oracle.idx.Match(doc, 0.1); !slices.Equal(pruned, brute) || !slices.Equal(pruned, want) {
			t.Errorf("pruned %v, brute force %v, a fresh broker %v", pruned, brute, want)
		}
	}
}

// TestImportHitRacingLastLeave: an import that took the index's vectors by
// their digests, and whose entries then lose their last holder before it
// is indexed, still lands: its vectors are staged anew — named again — it
// exports the bytes it imported, and pruned matching is brute force is a
// fresh broker's. Then the same race unstaged, between writers that import
// and leave, under the race detector.
func TestImportHitRacingLastLeave(t *testing.T) {
	state := trainedStates(t, 1, false)[0]
	names := digestsOf(t, state)
	b := New(Options{Threshold: 0.1})
	held := importProfile(t, b, "a", state).PackedVectors()

	l := core.NewDefault()
	got, err := l.UnmarshalFrom(state, b.idx)
	if err != nil || !slices.Equal(got, names) {
		t.Fatalf("UnmarshalFrom named %x, %v; want %x", got, err, names)
	}
	terms := intern.Terms.Len()
	for k, v := range l.PackedVectors() {
		if &v.IDs[0] != &held[k].IDs[0] || &v.Weights[0] != &held[k].Weights[0] {
			t.Fatalf("vector %d was decoded, not taken from a's entry", k)
		}
	}
	b.Unsubscribe("a")
	for k, d := range names {
		if _, ok := b.idx.Named(d); ok {
			t.Fatalf("vector %d's name outlived its last holder", k)
		}
	}
	if _, err := b.subscribe("b", l, false, nil, got); err != nil {
		t.Fatal(err)
	}
	if intern.Terms.Len() != terms {
		t.Errorf("the import interned %d terms", intern.Terms.Len()-terms)
	}
	if st := b.IndexStats(); st.Vectors != len(held) || st.Distinct != len(held) {
		t.Errorf("index %+v, want b's %d vectors in as many entries", st, len(held))
	}
	for k, d := range names {
		if p, ok := b.idx.Named(d); !ok || !p.Equal(held[k]) {
			t.Errorf("vector %d's restaged entry is not named by its digest", k)
		}
	}
	checkExports(t, b, state, "b")
	checkMatches(t, b, state, "b")

	b.Unsubscribe("b")

	// Writers that each import and leave again, so that the entries keep
	// losing their last holder while other imports hold their vectors.
	const writers, rounds = 4, 60
	users := make([]string, writers)
	var wg sync.WaitGroup
	for w := range users {
		users[w] = fmt.Sprintf("w%d", w)
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if i > 0 {
					b.Unsubscribe(user)
				}
				if _, err := b.Import(user, "MM", state); err != nil {
					t.Error(err)
					return
				}
			}
		}(users[w])
	}
	wg.Wait()
	if st := b.IndexStats(); st.Vectors != writers*len(held) || st.Distinct != len(held) {
		t.Errorf("after the race: index %+v, want %d vectors in %d entries", st, writers*len(held), len(held))
	}
	checkExports(t, b, state, users...)
	checkMatches(t, b, state, users...)
	for _, u := range users {
		b.Unsubscribe(u)
	}
	for k, d := range names {
		if _, ok := b.idx.Named(d); ok {
			t.Errorf("vector %d's name outlived every holder", k)
		}
	}
}

// TestTwoEncodingsOneEntry: the same profile with one term length written
// in two bytes, which binary.Uvarint accepts, has another digest for that
// vector: its import finds no name, decodes it and joins the entry by
// content — one entry, no name taken — and exports the canonical bytes.
func TestTwoEncodingsOneEntry(t *testing.T) {
	state := trainedStates(t, 1, false)[0]
	p := core.NewDefault()
	if err := p.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	v := p.PackedVectors()[0]
	enc := vsm.AppendPacked(nil, v)
	if enc[0] >= 0x80 || enc[1] >= 0x80 {
		t.Fatalf("the test wants a one-byte term count and first term length, not %x", enc[:2])
	}
	at := bytes.Index(state, enc) + 1
	long := slices.Concat(state[:at], []byte{state[at] | 0x80, 0}, state[at+1:])
	longVec := slices.Concat(enc[:1], []byte{enc[1] | 0x80, 0}, enc[2:])

	b := New(Options{Threshold: 0.1})
	importProfile(t, b, "canonical", state)
	before := b.IndexStats()
	importProfile(t, b, "long", long)
	if _, ok := b.idx.Named(vsm.DigestOf(longVec)); ok {
		t.Error("the second encoding named the entry its content joined")
	}
	if st := b.IndexStats(); st.Distinct != before.Distinct || st.Vectors != 2*before.Vectors || st.Postings != before.Postings {
		t.Errorf("index %+v after the second encoding; want %+v with twice the vectors", st, before)
	}
	if _, ok := b.idx.Named(vsm.DigestOf(enc)); !ok {
		t.Error("the canonical encoding's name is gone")
	}
	if lv, cv := b.reg.subs["long"].learner.PackedVectors()[0], b.reg.subs["canonical"].learner.PackedVectors()[0]; &lv.IDs[0] != &cv.IDs[0] {
		t.Error("the second encoding's vector is a copy of its own, not the shared one")
	}
	checkExports(t, b, state, "canonical", "long")
}

// TestImportNamesDieWithTheLastHolder: a name lives exactly as long as
// some subscriber holds the vector decoded under it. Users import three
// profiles; one user of each has a judgment move vector 0 away, then the
// users leave one by one; after every step a digest finds a vector exactly
// when a subscriber still holds one equal to it, and at the end none.
func TestImportNamesDieWithTheLastHolder(t *testing.T) {
	states := trainedStates(t, 3, false)
	b := New(Options{Threshold: 0.1})
	type named struct {
		d vsm.Digest
		v vsm.Packed
	}
	var all []named
	var users []string
	for s, state := range states {
		p := core.NewDefault()
		if err := p.UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		for k, d := range digestsOf(t, state) {
			all = append(all, named{d, p.PackedVectors()[k]})
		}
		for u := 0; u < 3; u++ {
			users = append(users, fmt.Sprintf("s%d-u%d", s, u))
			importProfile(t, b, users[len(users)-1], state)
		}
	}
	check := func(when string) {
		t.Helper()
		for i, n := range all {
			held := false
			for _, s := range b.reg.subs {
				for _, v := range s.learner.PackedVectors() {
					held = held || v.Equal(n.v)
				}
			}
			if _, ok := b.idx.Named(n.d); ok != held {
				t.Errorf("%s: name %d finds a vector: %v; a subscriber holds it: %v", when, i, ok, held)
			}
		}
	}
	check("imported")
	for s := range states {
		user := fmt.Sprintf("s%d-u1", s)
		v := b.reg.subs[user].learner.PackedVectors()[0]
		m := map[string]float64{"namesdieextra": 0.3}
		for k, id := range v.IDs {
			m[intern.Terms.String(id)] = v.Weights[k]
		}
		doc, _ := b.PublishVector(vsm.FromMap(m).Normalized())
		if err := b.Feedback(user, doc, filter.Relevant); err != nil {
			t.Fatal(err)
		}
		if b.reg.subs[user].learner.PackedVectors()[0].Equal(v) {
			t.Fatalf("%s's judgment left vector 0 where it was", user)
		}
		check("after " + user + "'s judgment")
	}
	for _, u := range users {
		b.Unsubscribe(u)
		check("after " + u + " left")
	}
	for i, n := range all {
		if _, ok := b.idx.Named(n.d); ok {
			t.Errorf("name %d outlived every holder", i)
		}
	}
}

// TestFeedbackRacingImport: a judgment sent while its user's import is in
// flight waits for the import's first reindex, since registration, journal
// append and that reindex are one hold of the subscriber's lock — so the
// digests the reindex names entries by are always of the profile's own
// vectors. Each round one goroutine imports u while another retries a
// judgment that moves u's vector 0 until it lands; then every name must
// find the vector decoded under it, and a second import of the same bytes,
// which takes what the names find, must export those bytes. Run under the
// race detector too.
func TestFeedbackRacingImport(t *testing.T) {
	state := trainedStates(t, 1, false)[0]
	names := digestsOf(t, state)
	p := core.NewDefault()
	if err := p.UnmarshalBinary(state); err != nil {
		t.Fatal(err)
	}
	decoded := p.PackedVectors()
	m := map[string]float64{"racingimportextra": 0.3}
	for k, id := range decoded[0].IDs {
		m[intern.Terms.String(id)] = decoded[0].Weights[k]
	}
	b := New(Options{Threshold: 0.1})
	doc, _ := b.PublishVector(vsm.FromMap(m).Normalized())
	for round := 0; round < 40; round++ {
		u := fmt.Sprintf("u%d", round)
		imported := make(chan error, 1)
		go func() {
			_, err := b.Import(u, "MM", state)
			imported <- err
		}()
		for b.Feedback(u, doc, filter.Relevant) != nil {
			select {
			case err := <-imported:
				if err != nil {
					t.Fatal(err)
				}
				imported <- nil
			default:
			}
		}
		if err := <-imported; err != nil {
			t.Fatal(err)
		}
		if b.reg.subs[u].learner.PackedVectors()[0].Equal(decoded[0]) {
			t.Fatalf("round %d: the judgment left vector 0 where it was", round)
		}
		for k, d := range names {
			if v, ok := b.idx.Named(d); ok && !v.Equal(decoded[k]) {
				t.Fatalf("round %d: name %d finds a vector other than the one decoded under it", round, k)
			}
		}
		importProfile(t, b, "w", state)
		checkExports(t, b, state, "w")
		b.Unsubscribe("w")
		b.Unsubscribe(u)
	}
}
