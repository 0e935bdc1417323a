package rocchio

import (
	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// NRN is the nearest-relevant-neighbour learner of Foltz and Dumais: every
// relevant document becomes its own profile vector and a document is scored
// by its similarity to the closest one. It is the θ = 1.0 degenerate case
// of MM (paper Section 5.4) and is included as the fine-granularity extreme
// of the quality/size trade-off. Negative feedback is ignored. Not safe
// for concurrent use.
type NRN struct {
	vectors []vsm.Vector
}

// NewNRN returns an empty NRN learner.
func NewNRN() *NRN { return &NRN{} }

// Name implements filter.Learner.
func (n *NRN) Name() string { return "NRN" }

// Observe implements filter.Learner: relevant documents are stored
// unit-normalized (duplicates of an already-stored vector are skipped,
// matching the paper's "all (distinct) relevant documents" reading).
// Documents arrive unit-normalized anyway; normalizing on store makes the
// invariant local so Score can use the vsm.DotUnit fast path.
func (n *NRN) Observe(v vsm.Vector, fd filter.Feedback) {
	if fd != filter.Relevant || v.IsZero() {
		return
	}
	v = v.Normalized()
	for _, p := range n.vectors {
		if vsm.DotUnit(p, v) >= 1-1e-12 {
			return
		}
	}
	n.vectors = append(n.vectors, v)
}

// Score implements filter.Learner; v must be unit-normalized, as all
// document vectors in this system are.
func (n *NRN) Score(v vsm.Vector) float64 {
	best := 0.0
	for _, p := range n.vectors {
		if s := vsm.DotUnit(p, v); s > best {
			best = s
		}
	}
	return best
}

// ProfileSize implements filter.Learner: one vector per stored document.
func (n *NRN) ProfileSize() int { return len(n.vectors) }

// Reset implements filter.Learner.
func (n *NRN) Reset() { n.vectors = nil }

func init() {
	filter.Register("NRN", func() filter.Learner { return NewNRN() })
}
