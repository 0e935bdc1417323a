package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/intern"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// The golden exports: for each of the four interest-shift scenarios of
// internal/sim, the SHA-256 of MarshalBinary after every 50th judgment of a
// fixed stream, once over the corpus's own vocabulary and once with every
// term behind a prefix — a vocabulary nothing else in the test binary
// interns, which TestGoldenExportUnderReversedInterning needs. The file was
// written by
//
//	go test ./internal/core -run TestGoldenExport -update-golden
//
// at the commit before profile vectors were packed to term ids, so the
// hashes are what the all-strings implementation exported. A change to MM's
// arithmetic, to the codec or to the synthetic corpus moves them; regenerate
// only at a commit whose exports are known good.
const goldenFile = "testdata/export_golden.txt"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenFile+" from this build's exports")

const (
	goldenJudgments = 300
	goldenShiftAt   = 150
	goldenEvery     = 50
	goldenPrefix    = "rev~"
)

// goldenStream is one scenario's judgments: the documents, their terms
// behind prefix (an order-preserving renaming), and the feedback each gets.
type goldenStream struct {
	name string
	docs []vsm.Vector
	fds  []filter.Feedback
}

func goldenStreams(t testing.TB, prefix string) []goldenStream {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.TopCategories = 5
	cfg.SubPerTop = 3
	cfg.PagesPerSub = 6
	cfg.MinWords = 80
	cfg.MaxWords = 150
	ds := corpus.Generate(cfg).Vectorize(text.NewPipeline())
	scenarios := []func(*rand.Rand, *corpus.Dataset) sim.Shift{
		sim.PartialShift, sim.CompleteShift, sim.AddInterest, sim.DeleteInterest,
	}
	var out []goldenStream
	for i, scenario := range scenarios {
		rng := rand.New(rand.NewSource(int64(20 + i)))
		shift := scenario(rng, ds)
		u := sim.NewUser()
		gs := goldenStream{name: shift.Name}
		for step, d := range sim.Stream(rng, ds.Docs, goldenJudgments) {
			shift.Apply(u, step, goldenShiftAt)
			v := d.Vec.Clone()
			for j, term := range v.Terms {
				v.Terms[j] = prefix + term
			}
			gs.docs = append(gs.docs, v)
			gs.fds = append(gs.fds, u.Feedback(d))
		}
		out = append(out, gs)
	}
	return out
}

// goldenKey names one hash of the file.
func goldenKey(scenario, prefix string, step int) string {
	if prefix == "" {
		prefix = "-"
	}
	return fmt.Sprintf("%s %s %d", scenario, prefix, step)
}

func exportHash(t testing.TB, p *Profile) string {
	t.Helper()
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob))
}

func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if i := strings.LastIndexByte(sc.Text(), ' '); i > 0 {
			want[sc.Text()[:i]] = sc.Text()[i+1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenExport: the judgments of the four shift scenarios leave the
// profile exporting the bytes the all-strings implementation exported.
func TestGoldenExport(t *testing.T) {
	got := map[string]string{}
	var keys []string
	structural := 0
	prefixes := []string{""}
	if *updateGolden {
		prefixes = append(prefixes, goldenPrefix)
	}
	for _, prefix := range prefixes {
		for _, gs := range goldenStreams(t, prefix) {
			p := NewDefault()
			for i, v := range gs.docs {
				p.Observe(v, gs.fds[i])
				if (i+1)%goldenEvery == 0 {
					k := goldenKey(gs.name, prefix, i+1)
					got[k] = exportHash(t, p)
					keys = append(keys, k)
				}
			}
			c := p.Counts()
			structural += c.Created + c.Merged + c.Deleted
			if c.Incorporated == 0 || p.ProfileSize() == 0 {
				t.Fatalf("%s: the stream did not train the profile: %+v", gs.name, c)
			}
		}
	}
	if structural < 8*len(prefixes) {
		t.Fatalf("the streams exercised only %d creates, merges and deletes", structural)
	}
	if *updateGolden {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: export hashes to %s, golden %s", k, got[k], want[k])
		}
	}
}

// TestGoldenExportUnderReversedInterning: term ids are arrival order. With
// the whole vocabulary interned in descending term order first — so within a
// shard of the table ids fall where terms rise — and the profile exported
// and imported half way, the exports are still the golden bytes: nothing
// sums, merges or encodes in id order.
func TestGoldenExportUnderReversedInterning(t *testing.T) {
	streams := goldenStreams(t, goldenPrefix)
	seen := map[string]bool{}
	var vocab []string
	for _, gs := range streams {
		for _, v := range gs.docs {
			for _, term := range v.Terms {
				if !seen[term] {
					seen[term] = true
					vocab = append(vocab, term)
				}
			}
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(vocab)))
	for _, term := range vocab {
		intern.Terms.Intern(term)
	}
	last := uint32(0)
	for i, term := range vocab { // descending terms: ids must ascend
		id, _ := intern.Terms.Lookup(term)
		if i > 0 && id < last {
			t.Fatalf("%q has id %d below an earlier arrival's %d", term, id, last)
		}
		last = id
	}

	want := readGolden(t)
	for _, gs := range streams {
		p := NewDefault()
		for i, v := range gs.docs {
			p.Observe(v, gs.fds[i])
			if i+1 == goldenShiftAt {
				blob, err := p.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				p = NewDefault()
				if err := p.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
			}
			if (i+1)%goldenEvery == 0 {
				k := goldenKey(gs.name, goldenPrefix, i+1)
				if want[k] == "" {
					t.Fatalf("%s has no hash for %s", goldenFile, k)
				}
				if got := exportHash(t, p); got != want[k] {
					t.Errorf("%s: export hashes to %s, golden %s", k, got, want[k])
				}
			}
		}
	}
}
