package core

import (
	"encoding/json"
	"fmt"
	"time"
)

// The adaptation audit journal: a bounded ring of MM's structural
// operations (paper §3.2–3.4), kept per profile so every vector's
// existence — and disappearance — can be traced back to the feedback
// step that caused it. The journal is an in-memory diagnostic: it is not
// serialized with the profile (MarshalBinary skips it) and survives only
// as long as the process. The wire layer exposes it via /explainz.

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

// TagNextObserve attaches a document id and trace id (hex, from
// internal/trace) to every audit event the next Observe call emits. The
// broker calls it just before applying feedback, closing the loop from
// "this vector exists" back to "because user U judged doc D in trace T".
func (p *Profile) TagNextObserve(doc int64, trace string) {
	p.tagDoc, p.tagTrace = doc, trace
}

// audit files one event, stamping the shared per-step fields. All call
// sites run inside Observe, which owns step/time/tag state.
func (p *Profile) audit(ev AuditEvent) {
	capacity := p.auditCap()
	if capacity == 0 {
		return
	}
	ev.Seq = p.auditSeq
	p.auditSeq++
	ev.Step = p.step
	ev.UnixNano = p.stepTime
	ev.Doc = p.tagDoc
	ev.Trace = p.tagTrace
	ev.Theta = p.opts.Theta
	ev.Eta = p.opts.Eta
	ev.VectorsAfter = len(p.vectors)
	if len(p.auditBuf) < capacity {
		p.auditBuf = append(p.auditBuf, ev)
		return
	}
	p.auditBuf[p.auditPos] = ev
	p.auditPos = (p.auditPos + 1) % capacity
}

// AuditTrail returns a copy of the journal, oldest event first. The Seq
// field exposes how many earlier events the bounded ring has dropped.
func (p *Profile) AuditTrail() []AuditEvent {
	out := make([]AuditEvent, 0, len(p.auditBuf))
	out = append(out, p.auditBuf[p.auditPos:]...)
	out = append(out, p.auditBuf[:p.auditPos]...)
	return out
}

// beginStep stamps the wall clock for the events of one Observe call; the
// read is skipped entirely when the journal is disabled.
func (p *Profile) beginStep() {
	if p.auditCap() > 0 {
		p.stepTime = time.Now().UnixNano()
	}
}

// endStep clears the per-step tag so a stale doc/trace never leaks onto a
// later, untagged judgment.
func (p *Profile) endStep() {
	p.tagDoc, p.tagTrace = 0, ""
}
