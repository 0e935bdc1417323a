package text_test

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"mmprofile/internal/corpus"
	"mmprofile/internal/intern"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// referenceTerms is Figure 3 spelled out stage by stage with the exported
// functions — what Pipeline.Terms was before it became one scan, and what
// it must still equal term for term.
func referenceTerms(p *text.Pipeline, page string) []string {
	body := page
	if p.StripMarkup {
		body = text.StripHTML(page)
	}
	terms := []string{}
	for _, tok := range text.Tokenize(body) {
		if !text.IsWord(tok) {
			continue
		}
		if p.RemoveStopWords && text.IsStopWord(tok) {
			continue
		}
		if p.StemTerms {
			tok = text.Stem(tok)
		}
		if tok == "" {
			continue
		}
		terms = append(terms, tok)
	}
	return terms
}

// sameTerms checks one page against the reference.
func sameTerms(t testing.TB, p *text.Pipeline, page string) {
	t.Helper()
	got, want := p.Terms(page), referenceTerms(p, page)
	if !slices.Equal(got, want) {
		if len(page) > 200 {
			page = page[:200] + "…"
		}
		t.Fatalf("Terms differs from Tokenize→IsWord→IsStopWord→Stem on %q:\n got %q\nwant %q", page, got, want)
	}
}

// TestTermsEqualsReferenceOnCorpus runs every page of the evaluation corpus
// through one pipeline — so later pages meet a cache the earlier ones
// filled, collisions and evictions included — and through the reference.
func TestTermsEqualsReferenceOnCorpus(t *testing.T) {
	cfg := corpus.DefaultConfig()
	if testing.Short() {
		cfg.PagesPerSub = 3
	}
	p := text.NewPipeline()
	for _, pg := range corpus.Generate(cfg).Pages {
		sameTerms(t, p, pg.HTML)
	}
	if n := p.CachedTokens(); n == 0 || n > text.TermCacheSlots {
		t.Errorf("cache holds %d tokens, want 1..%d", n, text.TermCacheSlots)
	}
}

// TestTermsEqualsReferenceStageByStage covers every combination of the
// three switches, on text that exercises each stage's edge: case folding
// that changes a rune's width, apostrophes, the 2- and 25-byte word bounds,
// digits and punctuation as separators, invalid UTF-8, markup.
func TestTermsEqualsReferenceStageByStage(t *testing.T) {
	pages := []string{
		"",
		"a",
		"The user's profiles aren't running; they've RUN.",
		"İstanbul ǅungla KELVIN\u212Aelvin Ünïcödé straße ΑΘΗΝΑ",
		"ab " + strings.Repeat("x", 25) + " " + strings.Repeat("y", 26) + " " + strings.Repeat("é", 12) + " " + strings.Repeat("é", 13),
		strings.Repeat("z", 24) + "İ " + strings.Repeat("z", 24) + "é",
		"x1y2z3 foo_bar baz-qux 3com com3 o'",
		"bad\xffutf8 \xc3( caf\xc3\xa9 \xed\xa0\x80 end",
		"<html><head><title>hidden</title></head><body><h1>Adaptive&nbsp;Profiles</h1><script>no()</script><p>AT&amp;T's caresses &#65;ponies</p></body>",
		"<p>unterminated <b tag",
		"trailing token",
	}
	for mask := 0; mask < 8; mask++ {
		p := &text.Pipeline{StripMarkup: mask&1 != 0, RemoveStopWords: mask&2 != 0, StemTerms: mask&4 != 0}
		for round := 0; round < 2; round++ { // second round: every token from the cache
			for _, page := range pages {
				sameTerms(t, p, page)
			}
		}
	}
}

// collidingTokens returns n distinct word tokens that all hash to one cache
// slot, so each evicts the one before it.
func collidingTokens(n int) []string {
	var out []string
	slot := intern.Hash("aa") & (text.TermCacheSlots - 1)
	for i := 0; len(out) < n; i++ {
		tok := "aa"
		for v := i; v > 0; v /= 26 {
			tok += string(rune('a' + v%26))
		}
		if intern.Hash(tok)&(text.TermCacheSlots-1) == slot {
			out = append(out, tok)
		}
	}
	return out
}

// TestTermsEqualsReferenceUnderEviction: tokens that share a slot, in
// orders that hit, miss and evict — the cache may forget, never confuse.
func TestTermsEqualsReferenceUnderEviction(t *testing.T) {
	toks := collidingTokens(4)
	a, b, c, d := toks[0], toks[1], toks[2], toks[3]
	p := text.NewPipeline()
	for _, seq := range [][]string{
		{a, a, a}, {a, b, a, b}, {b, b, a, a, b}, {a, b, c, d, a, b, c, d}, {d, c, b, a, a},
	} {
		sameTerms(t, p, strings.Join(seq, " "))
	}
	if n := p.CachedTokens(); n != 1 {
		t.Errorf("four tokens of one slot left %d cached tokens, want 1", n)
	}

	// Far more distinct tokens than slots, a recurring few among them.
	rng := rand.New(rand.NewSource(5))
	for page := 0; page < 60; page++ {
		var sb strings.Builder
		for i := 0; i < 2000; i++ {
			if i%7 == 0 {
				sb.WriteString(toks[rng.Intn(len(toks))])
			} else {
				sb.WriteString(randomToken(rng))
			}
			sb.WriteByte(' ')
		}
		sameTerms(t, p, sb.String())
	}
}

func randomToken(rng *rand.Rand) string {
	b := make([]byte, 2+rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestCachedTokensAllocateNothing: once a page's tokens are cached, Terms
// allocates its result slice and nothing per token — no token string, no
// stemmer buffer, no term string.
func TestCachedTokensAllocateNothing(t *testing.T) {
	p := &text.Pipeline{RemoveStopWords: true, StemTerms: true} // plain text in: no StripHTML copy
	page := strings.Repeat("Adaptive profiles are running the user's İstanbul deliveries, relentlessly. ", 20)
	want := referenceTerms(p, page)
	if got := testing.AllocsPerRun(50, func() {
		if len(p.Terms(page)) != len(want) {
			t.Fatal("term count changed between runs")
		}
	}); got > 1 {
		t.Errorf("Terms on cached tokens allocates %v times per page, want 1 (the result)", got)
	}
}

// TestPublishNeverGrowsTermTable is the hostile-publisher bound: a million
// distinct tokens through Terms leave the process-wide term table exactly
// as it was — only profiles add to it — and the token cache at its fixed
// size, while a term some profile does hold comes back as the table's own
// string.
func TestPublishNeverGrowsTermTable(t *testing.T) {
	held := intern.Terms.Canon([]byte(text.Stem("profiles")))
	before := intern.Terms.Len()
	p := text.NewPipeline()
	rng := rand.New(rand.NewSource(9))
	seen := 0
	for page := 0; page < 500; page++ {
		var sb strings.Builder
		for i := 0; i < 2000; i++ {
			// A counter in base 26 behind random letters: never repeats.
			sb.WriteString(randomToken(rng)[:2])
			for v := seen; v > 0; v /= 26 {
				sb.WriteByte(byte('a' + v%26))
			}
			sb.WriteByte(' ')
			seen++
		}
		sb.WriteString("Profiles")
		terms := p.Terms(sb.String())
		if got := terms[len(terms)-1]; unsafe.StringData(got) != unsafe.StringData(held) {
			t.Fatalf("page %d: a term a profile holds came back as a copy (%q)", page, got)
		}
	}
	if after := intern.Terms.Len(); after != before {
		t.Errorf("publishing %d distinct tokens grew the term table from %d to %d", seen, before, after)
	}
	if n := p.CachedTokens(); n > text.TermCacheSlots {
		t.Errorf("cache holds %d tokens, over its size %d", n, text.TermCacheSlots)
	}
}

// TestTermsConcurrentWithImport has many goroutines vectorising through one
// Pipeline while others decode profile vectors over the same vocabulary
// (which is what moves a stem from "allocated by the cache" to "owned by
// the table" under the readers' feet). Meaningful under -race.
func TestTermsConcurrentWithImport(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 1
	pages := corpus.Generate(cfg).Pages
	p := text.NewPipeline()
	ref := text.NewPipeline()
	want := make([][]string, len(pages))
	var encoded [][]byte
	for i, pg := range pages {
		want[i] = referenceTerms(ref, pg.HTML)
		weights := map[string]float64{}
		for _, term := range want[i] {
			weights[term+"q"] = 1 // new to the table, so the decoders insert
			weights[term] = 1
		}
		encoded = append(encoded, vsm.AppendVector(nil, vsm.FromMap(weights)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := range pages {
				k := (i + g*len(pages)/4) % len(pages)
				if got := p.Terms(pages[k].HTML); !slices.Equal(got, want[k]) {
					t.Errorf("page %d vectorised differently while profiles were imported", k)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := range encoded {
				k := (i + g*len(encoded)/4) % len(encoded)
				if _, _, err := vsm.DecodeVector(encoded[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzTermsEqualsReference feeds arbitrary bytes — broken UTF-8, broken
// HTML — through two pipelines (all stages, no stages) that keep their
// caches across inputs.
func FuzzTermsEqualsReference(f *testing.F) {
	for _, s := range []string{
		"", "plain words here", "<p>The <b>running</b> dogs&amp;cats</p>",
		"İ\u212A\xff'a'b''", "<script>x</script>y<!-- c -->z", "&#65;&nbsp;&bogus;",
		strings.Repeat("long", 7) + " " + strings.Repeat("é", 13), "a'b c' 'd",
	} {
		f.Add(s)
	}
	full := text.NewPipeline()
	bare := &text.Pipeline{}
	f.Fuzz(func(t *testing.T, in string) {
		sameTerms(t, full, in)
		sameTerms(t, bare, in)
	})
}

func BenchmarkTerms(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 2
	pages := corpus.Generate(cfg).Pages
	p := text.NewPipeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Terms(pages[i%len(pages)].HTML)
	}
}
