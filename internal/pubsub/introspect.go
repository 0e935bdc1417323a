package pubsub

import (
	"fmt"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/trace"
	"mmprofile/internal/vsm"
)

// Tracer returns the tracer the broker records request traces into: the
// one passed via Options.Trace, or nil when tracing is not configured (the
// wire /tracez endpoint reports "disabled" then).
func (b *Broker) Tracer() *trace.Tracer { return b.opts.Trace }

// VectorInfo describes one profile vector for introspection (/explainz):
// the stable id that audit events refer to, the strength statistic, and
// the heaviest terms — enough to recognize what interest the cluster
// represents without dumping full weight vectors.
type VectorInfo struct {
	ID             uint64   `json:"id"`
	Strength       float64  `json:"strength"`
	CreatedAt      int      `json:"created_at"`
	Incorporations int      `json:"incorporations"`
	TopTerms       []string `json:"top_terms,omitempty"`
}

// ProfileInfo is one subscriber's adaptation state: current vectors plus
// the audit journal explaining how they came to be.
type ProfileInfo struct {
	User    string            `json:"user"`
	Learner string            `json:"learner"`
	Size    int               `json:"size"`
	Vectors []VectorInfo      `json:"vectors,omitempty"`
	Audit   []core.AuditEvent `json:"audit"`
}

// vectorLister and auditSource are the core.Profile capabilities the
// introspection endpoints use; other learners may implement them too.
type vectorLister interface {
	Vectors() []core.ProfileVector
}

type auditSource interface {
	AuditTrail() []core.AuditEvent
}

type explainer interface {
	Explain(v vsm.Vector, maxTerms int) core.Explanation
}

// ProfileInfo snapshots a subscriber's vectors and audit journal under the
// subscriber's lock. topTerms bounds the terms reported per vector.
func (b *Broker) ProfileInfo(user string, topTerms int) (ProfileInfo, error) {
	info := ProfileInfo{User: user}
	err := b.userLearner(user, func(l filter.Learner) error {
		info.Learner, info.Size = l.Name(), l.ProfileSize()
		if vl, ok := l.(vectorLister); ok {
			for _, pv := range vl.Vectors() {
				info.Vectors = append(info.Vectors, VectorInfo{
					ID:             pv.ID,
					Strength:       pv.Strength,
					CreatedAt:      pv.CreatedAt,
					Incorporations: pv.Incorporations,
					TopTerms:       pv.Vec.TopTerms(topTerms),
				})
			}
		}
		if as, ok := l.(auditSource); ok {
			info.Audit = as.AuditTrail()
		}
		return nil
	})
	if err != nil {
		return ProfileInfo{}, err
	}
	return info, nil
}

// ExplainDoc explains a still-retained document against a subscriber's
// profile: which cluster (by stable id) matched and which terms carried
// the score. It requires a learner that supports explanation (core.Profile
// does) and does not modify the profile.
func (b *Broker) ExplainDoc(user string, doc int64, maxTerms int) (core.Explanation, error) {
	rec, ok := b.docs.Get(doc)
	if !ok {
		return core.Explanation{}, fmt.Errorf("pubsub: document %d not retained (retention %d)", doc, b.opts.Retention)
	}
	var out core.Explanation
	err := b.userLearner(user, func(l filter.Learner) error {
		ex, ok := l.(explainer)
		if !ok {
			return fmt.Errorf("pubsub: learner %q does not support explanation", l.Name())
		}
		out = ex.Explain(rec.Doc.Vector(), maxTerms)
		return nil
	})
	return out, err
}
