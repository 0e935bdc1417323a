package core

import (
	"mmprofile/internal/vsm"
)

// TermContribution is one term's share of a match score.
type TermContribution struct {
	Term string
	// Weight is the product of the profile-vector weight and the document
	// weight for the term — its additive contribution to the dot product.
	Weight float64
}

// Explanation breaks down why a document received its score: the matching
// cluster, its strength, and the terms that carried the similarity. It is
// what a user-facing system shows next to "why was I sent this?".
type Explanation struct {
	// Score is the profile's score for the document (max cluster cosine).
	Score float64
	// Cluster is the index of the best-matching profile vector in
	// Vectors() order at the time of the call; −1 when the profile is
	// empty or the document is zero.
	Cluster int
	// VectorID is the matching cluster's stable id (ProfileVector.ID),
	// which joins an explanation against the audit journal's events; 0
	// when Cluster is −1.
	VectorID uint64
	// Strength is the matching cluster's current strength.
	Strength float64
	// Contributions lists the shared terms in decreasing order of their
	// contribution to the score (at most the requested number).
	Contributions []TermContribution
}

// Explain scores the document and reports which cluster matched and which
// terms drove the match (top maxTerms of them). Like Score, it does not
// modify the profile.
func (p *Profile) Explain(v vsm.Vector, maxTerms int) Explanation {
	ex := Explanation{Cluster: -1}
	if v.IsZero() || len(p.vectors) == 0 {
		return ex
	}
	doc := vsm.Resolve(v)
	defer doc.Release()
	for i, pv := range p.vectors {
		// The same dot product as Score's, so the same score.
		if s := doc.Dot(pv.vec); s > ex.Score {
			ex.Score = s
			ex.Cluster = i
		}
	}
	if ex.Cluster < 0 {
		return ex
	}
	best := p.vectors[ex.Cluster]
	ex.Strength = best.strength
	ex.VectorID = best.id

	// Shared-term contributions to the (normalized) dot product.
	bv := best.vec.Vector()
	norm := bv.Norm() * v.Norm()
	if norm == 0 {
		return ex
	}
	m := make(map[string]float64)
	docW := v.ToMap()
	for i, t := range bv.Terms {
		if dw, ok := docW[t]; ok {
			m[t] = bv.Weights[i] * dw / norm
		}
	}
	contrib := vsm.FromMap(m) // sorts and drops non-positive
	for _, t := range contrib.TopTerms(maxTerms) {
		ex.Contributions = append(ex.Contributions, TermContribution{
			Term:   t,
			Weight: contrib.Weight(t),
		})
	}
	return ex
}
