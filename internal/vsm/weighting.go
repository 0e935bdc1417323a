package vsm

import "math"

// MaxDocumentTerms is the paper's cap on vector size: each document and
// profile vector keeps only its 100 highest-weighted terms (Section 4.1).
const MaxDocumentTerms = 100

// Weighting computes term weights for one document from its term
// frequencies and length, against collection statistics.
type Weighting interface {
	// Name identifies the scheme in reports.
	Name() string
	// Weight returns the weight of a term with frequency tf in a document
	// of docLen terms.
	Weight(term string, tf, docLen int) float64
}

// TFIDF is the classical scheme of Section 2.1:
// w = tf · log2(N/df). Terms absent from the collection statistics get
// df = 1 so that out-of-collection terms still receive a (maximal) weight.
type TFIDF struct {
	Stats *Stats
}

// Name implements Weighting.
func (TFIDF) Name() string { return "tfidf" }

// Weight implements Weighting.
func (w TFIDF) Weight(term string, tf, docLen int) float64 {
	n := w.Stats.N()
	if n == 0 || tf == 0 {
		return 0
	}
	df := w.Stats.DF(term)
	if df == 0 {
		df = 1
	}
	return float64(tf) * math.Log2(float64(n)/float64(df))
}

// Bel is Allan's belief weighting, used by every learner in the paper's
// experiments (Section 5.1):
//
//	bel(t,d)  = 0.4 + 0.6 · tfbel(t,d) · idf(t)
//	tfbel     = tf / (tf + 0.5 + 1.5·len_d/avglen)
//	idf(t)    = log((N+0.5)/df_t) / log(N+1)
type Bel struct {
	Stats *Stats
}

// Name implements Weighting.
func (Bel) Name() string { return "bel" }

// Weight implements Weighting.
func (w Bel) Weight(term string, tf, docLen int) float64 {
	n := w.Stats.N()
	if n == 0 || tf == 0 {
		return 0
	}
	avg := w.Stats.AvgLen()
	if avg == 0 {
		avg = float64(docLen)
	}
	df := w.Stats.DF(term)
	if df == 0 {
		df = 1
	}
	tfbel := float64(tf) / (float64(tf) + 0.5 + 1.5*float64(docLen)/avg)
	idf := math.Log((float64(n)+0.5)/float64(df)) / math.Log(float64(n)+1)
	bel := 0.4 + 0.6*tfbel*idf
	if bel < 0 {
		return 0
	}
	return bel
}

// DocumentVector converts a post-pipeline term list into its weighted,
// truncated, length-normalized vector representation: term frequencies are
// counted, weighted by scheme w, the MaxDocumentTerms highest-weighted
// terms kept, and the result scaled to unit length.
func DocumentVector(terms []string, w Weighting) Vector {
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
	// Truncated returns FromMap's arrays or fresh ones, both this call's, so
	// they are scaled in place: Normalized's division without its copy.
	v := FromMap(weights).Truncated(MaxDocumentTerms)
	if n := v.Norm(); n != 0 {
		for i := range v.Weights {
			v.Weights[i] /= n
		}
	}
	return v
}
