package core

import (
	"encoding/json"
	"fmt"
	"time"

	"mmprofile/internal/trace"
)

// The adaptation audit journal: a bounded ring of MM's structural
// operations (paper §3.2–3.4), kept per profile so every vector's
// existence — and disappearance — can be traced back to the feedback
// step that caused it. The journal is an in-memory diagnostic: it is not
// serialized with the profile (MarshalBinary skips it), a replayed
// judgment files nothing in it (Replay), and it survives only as long as
// the process. The wire layer exposes it via /explainz.

// AuditOp names one structural operation on the profile.
type AuditOp uint8

const (
	// AuditCreate: a relevant document outside every similarity circle
	// seeded a new profile vector (§3.2).
	AuditCreate AuditOp = iota
	// AuditIncorporate: a judged document was folded into its most
	// similar profile vector (§3.2), including the strength update.
	AuditIncorporate
	// AuditMerge: two profile vectors pulled within θ of each other were
	// combined; the merged-away vector's id is in AuditEvent.Merged (§3.3).
	AuditMerge
	// AuditDelete: strength decay pushed the acting vector below the
	// deletion threshold and it was removed (§3.4).
	AuditDelete
	// AuditAnnihilate: negative feedback zeroed the acting vector
	// entirely and it was removed.
	AuditAnnihilate
	// AuditIgnore: the judgment had no structural effect (zero document,
	// dissimilar non-relevant, …).
	AuditIgnore
)

var auditOpNames = [...]string{
	AuditCreate:      "create",
	AuditIncorporate: "incorporate",
	AuditMerge:       "merge",
	AuditDelete:      "delete",
	AuditAnnihilate:  "annihilate",
	AuditIgnore:      "ignore",
}

// String returns the operation's wire name.
func (op AuditOp) String() string {
	if int(op) < len(auditOpNames) {
		return auditOpNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// MarshalJSON renders the operation as its string name.
func (op AuditOp) MarshalJSON() ([]byte, error) {
	return []byte(`"` + op.String() + `"`), nil
}

// UnmarshalJSON parses the string name back, so /explainz consumers can
// decode events into the same struct.
func (op *AuditOp) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: audit op: %w", err)
	}
	for i, name := range auditOpNames {
		if name == s {
			*op = AuditOp(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown audit op %q", s)
}

// AuditEvent is one structural operation as recorded in the journal.
// Cosine vs Theta explains *why* the operation happened (incorporate when
// cosine ≥ θ, create/ignore otherwise); Eta and the strength pair explain
// *how far* it moved the profile.
type AuditEvent struct {
	// Seq increases by one per event over the profile's lifetime, so a
	// reader can detect how much a bounded journal has dropped.
	Seq int `json:"seq"`
	// Step is the feedback step (Observe call) that produced the event; a
	// single step can emit several events (incorporate + delete, …).
	Step     int     `json:"step"`
	UnixNano int64   `json:"unix_nano"`
	Op       AuditOp `json:"op"`
	// Feedback is the judgment's direction: +1 relevant, −1 not.
	Feedback int `json:"feedback"`
	// Doc and Trace tie the event to the delivered document and the
	// request trace that carried the judgment, when the caller provided
	// them via TagNextObserve (the broker does). Doc is always emitted —
	// document ids start at 0, so 0 is a real id, not an absence marker.
	Doc   int64  `json:"doc"`
	Trace string `json:"trace,omitempty"`
	// Vector is the acting profile vector's stable id; Merged the id of
	// the vector that was merged away (merge events only).
	Vector uint64 `json:"vector,omitempty"`
	Merged uint64 `json:"merged,omitempty"`
	// Cosine is the similarity that drove the decision, compared against
	// Theta (the θ in force at the time).
	Cosine float64 `json:"cosine"`
	Theta  float64 `json:"theta"`
	Eta    float64 `json:"eta"`
	// StrengthBefore/After bracket the acting vector's strength across
	// the operation (0 before a create; 0 after a delete/annihilate).
	StrengthBefore float64 `json:"strength_before"`
	StrengthAfter  float64 `json:"strength_after"`
	// VectorsAfter is the profile size once the operation applied.
	VectorsAfter int `json:"vectors_after"`
}

// auditRecord is an AuditEvent as the ring holds it: 80 bytes, where the
// event is 128. What the profile already knows is not stored: Seq is the
// record's place in the ring counted back from auditSeq, and Theta and
// Eta are the profile's options, which nothing changes while the journal
// holds a record (Reset and UnmarshalFrom empty it). The trace id stays a
// number until AuditTrail renders it.
type auditRecord struct {
	step           int
	unixNano       int64
	doc            int64
	trace          trace.TraceID
	vector, merged uint64
	cosine         float64
	strengthBefore float64
	strengthAfter  float64
	vectorsAfter   uint32
	op             AuditOp
	feedback       int8
}

// defaultAuditCapacity bounds the journal when Options.AuditCapacity is 0.
const defaultAuditCapacity = 64

// auditCap resolves the configured journal bound; ≤ 0 means disabled.
func (p *Profile) auditCap() int {
	switch {
	case p.opts.AuditCapacity > 0:
		return p.opts.AuditCapacity
	case p.opts.AuditCapacity < 0:
		return 0
	default:
		return defaultAuditCapacity
	}
}

// TagNextObserve attaches a document id and trace id to every audit
// event the next Observe call emits. The broker calls it just before
// applying feedback, closing the loop from "this vector exists" back to
// "because user U judged doc D in trace T".
func (p *Profile) TagNextObserve(doc int64, tr trace.TraceID) {
	p.tagDoc, p.tagTrace = doc, tr
}

// audit files one record, stamping the shared per-step fields. All call
// sites run inside Observe, which owns step/time/tag state. The ring grows
// by doubling from one record up to its capacity, so a profile that has
// filed one event holds one record.
func (p *Profile) audit(r auditRecord) {
	capacity := p.auditCap()
	if capacity == 0 || p.replaying {
		return
	}
	p.auditSeq++
	r.step = p.step
	r.unixNano = p.stepTime
	r.doc = p.tagDoc
	r.trace = p.tagTrace
	r.vectorsAfter = uint32(len(p.vectors))
	if n := len(p.auditBuf); n < capacity {
		if n == cap(p.auditBuf) {
			grown := make([]auditRecord, n, min(max(2*n, 1), capacity))
			copy(grown, p.auditBuf)
			p.auditBuf = grown
		}
		p.auditBuf = append(p.auditBuf, r)
		return
	}
	p.auditBuf[p.auditPos] = r
	p.auditPos = (p.auditPos + 1) % capacity
}

// AuditTrail returns the journal as events, oldest first. The Seq field
// exposes how many earlier events the bounded ring has dropped.
func (p *Profile) AuditTrail() []AuditEvent {
	n := len(p.auditBuf)
	out := make([]AuditEvent, n)
	for i := range out {
		r := &p.auditBuf[(p.auditPos+i)%n]
		out[i] = AuditEvent{
			Seq:            p.auditSeq - n + i,
			Step:           r.step,
			UnixNano:       r.unixNano,
			Op:             r.op,
			Feedback:       int(r.feedback),
			Doc:            r.doc,
			Trace:          r.trace.String(),
			Vector:         r.vector,
			Merged:         r.merged,
			Cosine:         r.cosine,
			Theta:          p.opts.Theta,
			Eta:            p.opts.Eta,
			StrengthBefore: r.strengthBefore,
			StrengthAfter:  r.strengthAfter,
			VectorsAfter:   int(r.vectorsAfter),
		}
	}
	return out
}

// beginStep stamps the wall clock for the events of one Observe call; the
// read is skipped entirely when the journal is disabled or the step is
// replayed.
func (p *Profile) beginStep() {
	if p.auditCap() > 0 && !p.replaying {
		p.stepTime = time.Now().UnixNano()
	}
}

// endStep clears the per-step tag so a stale doc/trace never leaks onto a
// later, untagged judgment.
func (p *Profile) endStep() {
	p.tagDoc, p.tagTrace = 0, 0
}
