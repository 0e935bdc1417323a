package core

import (
	"fmt"
	"math"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// ProfileVector is one cluster of the multi-modal profile: a representative
// vector plus the strength statistic that drives deletion. It is the copy
// Vectors hands out; the profile itself holds each cluster as a resident.
type ProfileVector struct {
	// ID identifies the vector across its lifetime, for the adaptation
	// audit journal (audit.go): ids are assigned once at creation, never
	// reused, and survive the index shifts that remove/merge cause. A
	// profile restored from a snapshot gets fresh sequential ids (the
	// codec does not persist them, matching the journal itself).
	ID uint64
	// Vec is the cluster representative, truncated to Options.MaxTerms and
	// unit-normalized.
	Vec vsm.Vector
	// Strength starts at Options.InitialStrength and is multiplied by
	// exp(DecayC·f_d) on every incorporation; merging sums strengths.
	Strength float64
	// CreatedAt is the feedback step at which the vector was created.
	CreatedAt int
	// Incorporations counts documents folded into this vector.
	Incorporations int
}

// OpCounts tallies MM's structural operations, for introspection and for
// the ablation benchmarks.
type OpCounts struct {
	Created      int // new profile vectors created
	Incorporated int // documents folded into an existing vector
	Merged       int // merge operations performed
	Deleted      int // vectors removed by strength decay
	Annihilated  int // vectors removed because negative feedback zeroed them
	Ignored      int // judgments with no effect (dissimilar non-relevant, …)
}

// resident is a cluster as the profile holds it: ProfileVector's fields
// with the representative packed to term ids — 12 bytes per term and no
// pointers, where the Vector callers see costs 24 (DESIGN.md §7). vec is
// replaced, never written to, so PackedVectors can hand it out uncopied —
// and the match index, which holds those very slices as its entry (or
// hands back an equal copy other profiles share, which AdoptPacked puts
// here) and keeps a vector whose slices it has seen, depends on it: a step
// that wrote into vec in place would go unindexed.
type resident struct {
	id             uint64
	vec            vsm.Packed
	strength       float64
	createdAt      int
	incorporations int
}

// Profile is the MM learner. It implements filter.Learner. A Profile is
// not safe for concurrent use.
type Profile struct {
	opts    Options
	vectors []*resident
	step    int
	ops     OpCounts

	// nextID seeds ProfileVector.ID; the audit journal state lives in
	// audit.go and is not part of the serialized snapshot.
	nextID   uint64
	auditBuf []AuditEvent
	auditPos int
	auditSeq int
	stepTime int64
	tagDoc   int64
	tagTrace string
}

// New constructs an MM profile; it panics if opts fail validation, since
// option values are compile-time constants in every intended use.
func New(opts Options) *Profile {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Profile{opts: opts}
}

// NewDefault constructs an MM profile with the paper's default parameters.
func NewDefault() *Profile { return New(DefaultOptions()) }

// Name implements filter.Learner.
func (p *Profile) Name() string {
	if p.opts.DisableDecay {
		return "MMND"
	}
	return "MM"
}

// Options returns the profile's configuration.
func (p *Profile) Options() Options { return p.opts }

// ProfileSize implements filter.Learner: the number of profile vectors,
// the storage metric of Figure 7.
func (p *Profile) ProfileSize() int { return len(p.vectors) }

// Counts returns the operation tallies accumulated since construction or
// the last Reset.
func (p *Profile) Counts() OpCounts { return p.ops }

// Vectors returns a deep copy of the current profile vectors, strongest
// first. The copy keeps callers from mutating internal state.
func (p *Profile) Vectors() []ProfileVector {
	out := make([]ProfileVector, len(p.vectors))
	for i, pv := range p.vectors {
		out[i] = ProfileVector{
			ID:             pv.id,
			Vec:            pv.vec.Vector(),
			Strength:       pv.strength,
			CreatedAt:      pv.createdAt,
			Incorporations: pv.incorporations,
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Strength > out[j-1].Strength; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ProfileVectors implements filter.VectorSource: the current cluster
// representatives, unit-normalized, as independent copies.
func (p *Profile) ProfileVectors() []vsm.Vector {
	out := make([]vsm.Vector, len(p.vectors))
	for i, pv := range p.vectors {
		out[i] = pv.vec.Vector()
	}
	return out
}

// PackedVectors returns the representatives ProfileVectors returns, in the
// same order, as the profile holds them: no term or weight is copied,
// because a Packed is never written to. It is what the broker hands the
// match index after every step.
func (p *Profile) PackedVectors() []vsm.Packed {
	out := make([]vsm.Packed, len(p.vectors))
	for i, pv := range p.vectors {
		out[i] = pv.vec
	}
	return out
}

// AdoptPacked takes, for each profile vector, the Packed at its position
// in shared when the two are equal (vsm.Packed.Equal): the match index
// hands back its own copy of a vector it already held, and adopting it lets
// the profile's duplicate arrays go. Equal means bit for bit, so nothing the
// profile scores, learns or exports changes.
func (p *Profile) AdoptPacked(shared []vsm.Packed) {
	for i, pv := range p.vectors {
		if i < len(shared) && pv.vec.Equal(shared[i]) {
			pv.vec = shared[i]
		}
	}
}

// ForEachStrength calls fn with each profile vector's current strength,
// in internal order. It allocates nothing, so callers (the broker's
// adaptation telemetry) can sample the strength distribution on every
// feedback step. The caller must serialize access as with every other
// method.
func (p *Profile) ForEachStrength(fn func(float64)) {
	for _, pv := range p.vectors {
		fn(pv.strength)
	}
}

// Reset implements filter.Learner. It also discards the audit journal and
// restarts vector id assignment.
func (p *Profile) Reset() {
	p.vectors = nil
	p.step = 0
	p.ops = OpCounts{}
	p.nextID = 0
	p.auditBuf = nil
	p.auditPos = 0
	p.auditSeq = 0
	p.endStep()
}

// Score implements filter.Learner: the relevance of a document to a
// multi-modal profile is its cosine similarity to the closest profile
// vector (the Foltz–Dumais convention the paper adopts). An empty profile
// scores everything 0. Profile vectors are unit-normalized by
// construction and v must be too (all document vectors in this system
// are), so the similarity is a plain dot product, the document resolved to
// term ids once for all of them (vsm.Resolve).
func (p *Profile) Score(v vsm.Vector) float64 {
	best := 0.0
	if len(p.vectors) == 0 {
		return best
	}
	doc := vsm.Resolve(v)
	defer doc.Release()
	for _, pv := range p.vectors {
		if s := doc.Dot(pv.vec); s > best {
			best = s
		}
	}
	return best
}

// Observe implements filter.Learner; it is the paper's Section 3.2–3.4
// update procedure.
func (p *Profile) Observe(v vsm.Vector, fd filter.Feedback) {
	p.step++
	p.beginStep()
	defer p.endStep()
	if v.IsZero() {
		p.ops.Ignored++
		p.audit(AuditEvent{Op: AuditIgnore, Feedback: int(fd)})
		return
	}

	doc := vsm.Resolve(v)
	defer doc.Release()
	actIdx, sim := p.closestTo(doc, -1)
	if actIdx < 0 {
		// Empty profile: only a relevant document may seed it (§3.2).
		if fd == filter.Relevant {
			p.create(v, 0)
		} else {
			p.ops.Ignored++
			p.audit(AuditEvent{Op: AuditIgnore, Feedback: int(fd)})
		}
		return
	}

	act := p.vectors[actIdx]
	// Incorporation requires sim ≥ θ (so θ = 0 always incorporates and the
	// profile stays a single vector, and θ = 1 creates a vector per distinct
	// relevant document — the paper's two extremes in §3.5).
	if sim < p.opts.Theta {
		// Outside every similarity circle: relevant documents start a new
		// cluster, non-relevant ones are ignored (§3.2).
		if fd != filter.Relevant {
			p.ops.Ignored++
			p.audit(AuditEvent{
				Op: AuditIgnore, Feedback: int(fd),
				Vector: act.id, Cosine: sim,
				StrengthBefore: act.strength, StrengthAfter: act.strength,
			})
			return
		}
		if p.opts.MaxVectors > 0 && len(p.vectors) >= p.opts.MaxVectors {
			// Bounded-memory extension: fold into the nearest vector anyway.
			p.incorporate(actIdx, v, fd, sim)
			return
		}
		p.create(v, sim)
		return
	}
	p.incorporate(actIdx, v, fd, sim)
}

// create inserts v as a new profile vector. sim is the cosine to the
// nearest existing vector (0 when the profile was empty), kept for the
// audit journal so a create can be read as "closest cluster was sim < θ".
func (p *Profile) create(v vsm.Vector, sim float64) {
	p.nextID++
	pv := &resident{
		id:        p.nextID,
		vec:       vsm.Pack(v.Truncated(p.opts.MaxTerms).Normalized()),
		strength:  p.opts.InitialStrength,
		createdAt: p.step,
	}
	p.vectors = append(p.vectors, pv)
	p.ops.Created++
	p.audit(AuditEvent{
		Op: AuditCreate, Feedback: int(filter.Relevant),
		Vector: pv.id, Cosine: sim,
		StrengthAfter: pv.strength,
	})
}

// incorporate folds v into the active vector at index actIdx, applies
// strength decay and the deletion rule, then attempts a single merge
// (§3.2–3.4). sim is the pre-move cosine between the active vector and v:
// the strength exponent is similarity-weighted (s ← s·exp(c·f_d·sim)), so
// a barely-similar judgment barely moves the strength while a judgment
// close to the cluster's core counts fully — see DESIGN.md for why this
// instantiation of the paper's "simple exponential decay" was chosen.
func (p *Profile) incorporate(actIdx int, v vsm.Vector, fd filter.Feedback, sim float64) {
	act := p.vectors[actIdx]
	before := act.strength
	moved := vsm.Combine(act.vec.Vector(), 1-p.opts.Eta, v, p.opts.Eta*float64(fd))
	moved = moved.Truncated(p.opts.MaxTerms).Normalized()
	p.ops.Incorporated++
	act.incorporations++

	if moved.IsZero() {
		// Negative feedback annihilated the vector entirely.
		p.remove(actIdx)
		p.ops.Annihilated++
		p.audit(AuditEvent{
			Op: AuditAnnihilate, Feedback: int(fd),
			Vector: act.id, Cosine: sim,
			StrengthBefore: before,
		})
		return
	}
	act.vec = vsm.Pack(moved)

	if !p.opts.DisableDecay {
		exponent := p.opts.DecayC * float64(fd)
		if !p.opts.UnweightedDecay {
			exponent *= sim
		}
		act.strength *= math.Exp(exponent)
		if act.strength < p.opts.DeleteThreshold {
			decayed := act.strength
			p.remove(actIdx)
			p.ops.Deleted++
			p.audit(AuditEvent{
				Op: AuditIncorporate, Feedback: int(fd),
				Vector: act.id, Cosine: sim,
				StrengthBefore: before, StrengthAfter: decayed,
			})
			p.audit(AuditEvent{
				Op: AuditDelete, Feedback: int(fd),
				Vector: act.id, Cosine: sim,
				StrengthBefore: decayed,
			})
			return
		}
	}
	p.audit(AuditEvent{
		Op: AuditIncorporate, Feedback: int(fd),
		Vector: act.id, Cosine: sim,
		StrengthBefore: before, StrengthAfter: act.strength,
	})

	// Merge check: only pairs containing the (moved) active vector can have
	// changed distance; at most one merge per feedback step, further merges
	// happen lazily (§3.3).
	if p.opts.DisableMerge || len(p.vectors) < 2 {
		return
	}
	// The siblings are held against the active vector the way they are
	// against a document.
	m := act.vec.Resolved()
	defer m.Release()
	cIdx, mergeSim := p.closestTo(m, actIdx)
	if cIdx < 0 {
		return
	}
	c := p.vectors[cIdx]
	if mergeSim < p.opts.Theta {
		return
	}
	// Mixing ratio is the strength share of the removed vector (§3.3).
	mergeBefore := act.strength
	r := c.strength / (act.strength + c.strength)
	merged := vsm.Combine(moved, 1-r, c.vec.Vector(), r)
	act.vec = vsm.Pack(merged.Truncated(p.opts.MaxTerms).Normalized())
	act.strength += c.strength
	act.incorporations += c.incorporations
	p.remove(cIdx)
	p.ops.Merged++
	p.audit(AuditEvent{
		Op: AuditMerge, Feedback: int(fd),
		Vector: act.id, Merged: c.id, Cosine: mergeSim,
		StrengthBefore: mergeBefore, StrengthAfter: act.strength,
	})
}

// closestTo returns the index of the profile vector most similar to v and
// that similarity, skipping index skip (pass −1 to consider all); −1 when
// the profile is empty or only contains the skipped vector.
func (p *Profile) closestTo(v *vsm.Resolved, skip int) (int, float64) {
	bestIdx, best := -1, -1.0
	for i, pv := range p.vectors {
		if i == skip {
			continue
		}
		if s := v.Dot(pv.vec); s > best {
			bestIdx, best = i, s
		}
	}
	return bestIdx, best
}

// remove deletes the vector at index i, preserving the order of the rest
// (determinism matters for reproducible experiments).
func (p *Profile) remove(i int) {
	p.vectors = append(p.vectors[:i], p.vectors[i+1:]...)
}

// String summarizes the profile for logs.
func (p *Profile) String() string {
	return fmt.Sprintf("%s{vectors: %d, steps: %d, ops: %+v}", p.Name(), len(p.vectors), p.step, p.ops)
}

func init() {
	filter.Register("MM", func() filter.Learner { return NewDefault() })
	filter.Register("MMND", func() filter.Learner {
		o := DefaultOptions()
		o.DisableDecay = true
		return New(o)
	})
}
