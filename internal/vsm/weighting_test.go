package vsm

import (
	"math"
	"strings"
	"testing"
)

func buildStats(docs ...string) *Stats {
	s := NewStats()
	for _, d := range docs {
		s.Add(strings.Fields(d))
	}
	return s
}

func TestStatsAccumulation(t *testing.T) {
	s := buildStats("a b b c", "a d")
	if s.N() != 2 {
		t.Errorf("N = %d", s.N())
	}
	if s.DF("a") != 2 || s.DF("b") != 1 || s.DF("z") != 0 {
		t.Errorf("df: a=%d b=%d z=%d", s.DF("a"), s.DF("b"), s.DF("z"))
	}
	if got := s.AvgLen(); !almostEqual(got, 3) {
		t.Errorf("AvgLen = %v", got)
	}
	if s.VocabularySize() != 4 {
		t.Errorf("VocabularySize = %d", s.VocabularySize())
	}
}

func TestStatsClone(t *testing.T) {
	s := buildStats("a b")
	c := s.Clone()
	s.Add([]string{"a", "c"})
	if c.N() != 1 || c.DF("c") != 0 {
		t.Error("Clone not independent")
	}
}

func TestTFIDFWeight(t *testing.T) {
	s := buildStats("cat dog", "cat fish", "cat bird", "owl moth")
	w := TFIDF{Stats: s}
	// df(cat)=3, N=4 → idf=log2(4/3)
	want := 2 * math.Log2(4.0/3.0)
	if got := w.Weight("cat", 2, 10); !almostEqual(got, want) {
		t.Errorf("tfidf = %v, want %v", got, want)
	}
	// A term occurring in every document gets weight 0.
	s2 := buildStats("x", "x")
	if got := (TFIDF{Stats: s2}).Weight("x", 1, 1); got != 0 {
		t.Errorf("ubiquitous term weight = %v, want 0", got)
	}
}

func TestBelWeightFormula(t *testing.T) {
	s := buildStats("cat dog bird", "cat fish owl", "lion tiger bear")
	w := Bel{Stats: s}
	// Hand-compute bel for term "cat", tf=2, docLen=4:
	// avglen=3, N=3, df=2
	tfbel := 2.0 / (2.0 + 0.5 + 1.5*4.0/3.0)
	idf := math.Log(3.5/2.0) / math.Log(4.0)
	want := 0.4 + 0.6*tfbel*idf
	if got := w.Weight("cat", 2, 4); !almostEqual(got, want) {
		t.Errorf("bel = %v, want %v", got, want)
	}
}

func TestBelWeightEdgeCases(t *testing.T) {
	w := Bel{Stats: NewStats()}
	if got := w.Weight("x", 3, 5); got != 0 {
		t.Errorf("empty-collection bel = %v, want 0", got)
	}
	s := buildStats("a b")
	w = Bel{Stats: s}
	if got := w.Weight("a", 0, 2); got != 0 {
		t.Errorf("zero-tf bel = %v, want 0", got)
	}
	// Unseen term must not panic and must get a positive weight (df
	// backfilled to 1).
	if got := w.Weight("unseen", 1, 2); got <= 0 {
		t.Errorf("unseen-term bel = %v, want > 0", got)
	}
}

func TestBelMoreFrequentTermWeighsMore(t *testing.T) {
	s := buildStats("a b c d", "e f g h", "i j k l")
	w := Bel{Stats: s}
	lo := w.Weight("a", 1, 10)
	hi := w.Weight("a", 5, 10)
	if hi <= lo {
		t.Errorf("bel not monotone in tf: tf=1→%v tf=5→%v", lo, hi)
	}
}

func TestBelRarerTermWeighsMore(t *testing.T) {
	s := buildStats("common rare", "common x", "common y", "common z")
	w := Bel{Stats: s}
	c := w.Weight("common", 1, 10)
	r := w.Weight("rare", 1, 10)
	if r <= c {
		t.Errorf("bel not monotone in rarity: common=%v rare=%v", c, r)
	}
}

func TestDocumentVector(t *testing.T) {
	// cat and dog have identical document frequency, so the tf=2 term must
	// outweigh the tf=1 term.
	s := buildStats("cat dog", "cat dog", "bird owl")
	v := DocumentVector([]string{"cat", "cat", "dog"}, Bel{Stats: s})
	if v.IsZero() {
		t.Fatal("empty document vector")
	}
	if !almostEqual(v.Norm(), 1) {
		t.Errorf("document vector not normalized: %v", v.Norm())
	}
	if v.Weight("cat") <= v.Weight("dog") {
		t.Errorf("tf=2 term should outweigh tf=1 term: %v", v.ToMap())
	}
	if v.Weight("fish") != 0 {
		t.Error("absent term has weight")
	}
}

func TestDocumentVectorTruncation(t *testing.T) {
	s := NewStats()
	terms := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		terms = append(terms, "t"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
	}
	s.Add(terms)
	s.Add([]string{"other"})
	v := DocumentVector(terms, Bel{Stats: s})
	if v.Len() != MaxDocumentTerms {
		t.Errorf("300 distinct terms gave a vector of %d, the cap is %d", v.Len(), MaxDocumentTerms)
	}
}

func TestDocumentVectorEmpty(t *testing.T) {
	v := DocumentVector(nil, Bel{Stats: NewStats()})
	if !v.IsZero() {
		t.Error("expected zero vector for empty document")
	}
}
