// Package rocchio implements the baseline learners the paper compares MM
// against (Section 5.1): purely incremental Rocchio (RI), group Rocchio
// (RG) after Allan, batch Rocchio, and the nearest-relevant-neighbour
// method (NRN) of Foltz and Dumais.
package rocchio

import (
	"fmt"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// Feedback parameters of Allan's Rocchio formulation used by the paper:
// w(t)_{i+1} = w(t)_i + 2·w_{t,R} − ½·w_{t,NR}.
const (
	betaRelevant     = 2.0
	gammaNonRelevant = 0.5
)

// Rocchio is a single-vector relevance-feedback learner. Judged documents
// are buffered into groups of GroupSize and each full group applied as one
// Rocchio update; GroupSize 1 is the paper's RI, larger sizes its RG. A
// GroupSize of 0 buffers indefinitely (batch mode) until Flush is called.
// Not safe for concurrent use.
type Rocchio struct {
	name      string
	groupSize int
	maxTerms  int

	profile vsm.Vector
	norm    float64 // cached ‖profile‖, maintained by Flush and Reset
	rel     []vsm.Vector
	nonRel  []vsm.Vector
	updates int
}

// NewRI returns purely incremental Rocchio (group size 1).
func NewRI() *Rocchio { return newRocchio("RI", 1) }

// NewRG returns group Rocchio with the given group size (the paper uses 10
// and 100); it panics on sizes < 2, which would silently be RI.
func NewRG(groupSize int) *Rocchio {
	if groupSize < 2 {
		panic(fmt.Sprintf("rocchio: RG group size %d < 2; use NewRI", groupSize))
	}
	return newRocchio(fmt.Sprintf("RG%d", groupSize), groupSize)
}

// NewBatch returns batch Rocchio: judgments accumulate until Flush applies
// them all in a single update, the non-incremental best case of Section 5.2.
func NewBatch() *Rocchio { return newRocchio("Batch", 0) }

func newRocchio(name string, groupSize int) *Rocchio {
	return &Rocchio{name: name, groupSize: groupSize, maxTerms: vsm.MaxDocumentTerms}
}

// Name implements filter.Learner.
func (r *Rocchio) Name() string { return r.name }

// GroupSize returns the configured group size (0 for batch).
func (r *Rocchio) GroupSize() int { return r.groupSize }

// Updates returns how many group updates have been applied.
func (r *Rocchio) Updates() int { return r.updates }

// Pending returns the number of buffered, not yet applied judgments.
func (r *Rocchio) Pending() int { return len(r.rel) + len(r.nonRel) }

// ProfileSize implements filter.Learner; a Rocchio profile is always a
// single vector (0 before any update).
func (r *Rocchio) ProfileSize() int {
	if r.profile.IsZero() {
		return 0
	}
	return 1
}

// Profile returns a copy of the current profile vector.
func (r *Rocchio) Profile() vsm.Vector { return r.profile.Clone() }

// Reset implements filter.Learner.
func (r *Rocchio) Reset() {
	r.profile = vsm.Vector{}
	r.norm = 0
	r.rel = nil
	r.nonRel = nil
	r.updates = 0
}

// Observe implements filter.Learner: the judgment joins the current group;
// a full group is applied immediately.
func (r *Rocchio) Observe(v vsm.Vector, fd filter.Feedback) {
	if v.IsZero() {
		return
	}
	if fd == filter.Relevant {
		r.rel = append(r.rel, v)
	} else {
		r.nonRel = append(r.nonRel, v)
	}
	if r.groupSize > 0 && r.Pending() >= r.groupSize {
		r.Flush()
	}
}

// Flush applies all buffered judgments as one Rocchio update. It is the
// group boundary for RG and the single update of batch mode; the evaluator
// calls it when training completes.
func (r *Rocchio) Flush() {
	if r.Pending() == 0 {
		return
	}
	// Accumulate in a map so the −½·w_{t,NR} term can subtract from
	// existing profile weights before the final non-negativity clamp.
	m := r.profile.ToMap()
	for t, w := range centroid(r.rel).ToMap() {
		m[t] += betaRelevant * w
	}
	for t, w := range centroid(r.nonRel).ToMap() {
		m[t] -= gammaNonRelevant * w
	}
	r.profile = vsm.FromMap(m).Truncated(r.maxTerms)
	r.norm = r.profile.Norm()
	r.rel = nil
	r.nonRel = nil
	r.updates++
}

// Score implements filter.Learner. The profile vector is not kept
// unit-length (Rocchio updates accumulate raw weights), but its norm only
// changes on Flush, so Score divides by the cached norm instead of
// recomputing it per call; v is unit-normalized as all document vectors in
// this system are.
func (r *Rocchio) Score(v vsm.Vector) float64 {
	if r.norm == 0 {
		return 0
	}
	return vsm.Dot(r.profile, v) / r.norm
}

// centroid returns the mean of the vectors (the w_{t,R} / w_{t,NR} terms of
// Allan's formula); the zero vector when the set is empty.
func centroid(vs []vsm.Vector) vsm.Vector {
	if len(vs) == 0 {
		return vsm.Vector{}
	}
	sum := vs[0]
	for _, v := range vs[1:] {
		sum = vsm.Combine(sum, 1, v, 1)
	}
	return sum.Scaled(1 / float64(len(vs)))
}

func init() {
	filter.Register("RI", func() filter.Learner { return NewRI() })
	filter.Register("RG10", func() filter.Learner { return NewRG(10) })
	filter.Register("RG100", func() filter.Learner { return NewRG(100) })
	filter.Register("Batch", func() filter.Learner { return NewBatch() })
}
