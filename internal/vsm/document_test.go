package vsm_test

import (
	"math"
	"testing"

	"mmprofile/internal/corpus"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// corpusTerms runs the 1 000 pages of the benchmark's corpus (ten per
// second-level category) through the Fig. 3 pipeline and returns their
// term lists with the whole collection's statistics.
func corpusTerms() ([][]string, *vsm.Stats) {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 10
	pages := corpus.Generate(cfg).Pages
	pipe, stats := text.NewPipeline(), vsm.NewStats()
	terms := make([][]string, len(pages))
	for i, pg := range pages {
		terms[i] = pipe.Terms(pg.HTML)
		stats.Add(terms[i])
	}
	return terms, stats
}

// referenceDocumentVector is DocumentVector computed through Normalized,
// which scales a copy.
func referenceDocumentVector(terms []string, w vsm.Weighting) vsm.Vector {
	tf := make(map[string]int, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	weights := make(map[string]float64, len(tf))
	for t, f := range tf {
		if wt := w.Weight(t, f, len(terms)); wt > 0 {
			weights[t] = wt
		}
	}
	return vsm.FromMap(weights).Truncated(vsm.MaxDocumentTerms).Normalized()
}

// TestDocumentVectorScalesInPlace: scaling the vector DocumentVector built
// rather than a copy of it gives the same terms and weight bits on every
// corpus page, two allocations fewer.
func TestDocumentVectorScalesInPlace(t *testing.T) {
	terms, stats := corpusTerms()
	bel := vsm.Bel{Stats: stats}
	nonZero := 0
	for i, ts := range terms {
		got, want := vsm.DocumentVector(ts, bel), referenceDocumentVector(ts, bel)
		if len(got.Terms) != len(want.Terms) {
			t.Fatalf("page %d: %d terms, want %d", i, len(got.Terms), len(want.Terms))
		}
		for k := range want.Terms {
			if got.Terms[k] != want.Terms[k] || math.Float64bits(got.Weights[k]) != math.Float64bits(want.Weights[k]) {
				t.Fatalf("page %d term %d: %q %x, want %q %x", i, k,
					got.Terms[k], math.Float64bits(got.Weights[k]), want.Terms[k], math.Float64bits(want.Weights[k]))
			}
		}
		if !got.IsZero() {
			nonZero++
		}
	}
	all := func(fn func([]string, vsm.Weighting) vsm.Vector) float64 {
		return testing.AllocsPerRun(1, func() {
			for _, ts := range terms {
				fn(ts, bel)
			}
		})
	}
	if saved := all(referenceDocumentVector) - all(vsm.DocumentVector); saved != float64(2*nonZero) {
		t.Errorf("%v allocations saved over %d pages, want 2 a page", saved, nonZero)
	}
}
