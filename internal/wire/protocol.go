// Package wire exposes the dissemination broker over TCP (or a Unix
// domain socket) with a newline-delimited JSON protocol, so the engine can
// run as a standalone daemon (cmd/mmserver) with remote publishers and
// subscribers (cmd/mmclient).
//
// A message is one JSON line, and a message that carries a profile (the
// import request, the export reply) gives its length there as
// "state_len":N and is followed, after its newline, by the N raw bytes.
// A line with a "state" member is refused: profile bytes never travel
// inside the JSON.
//
// Deliveries reach clients one way: "session" switches a connection into
// server-push mode. The server owns the socket from the ack onward and
// pushes coalesced delivery batches as they happen, with no per-batch
// round trip; one persistent connection holds one session (DESIGN.md §15).
//
// The ack and every frame report next_seq (the sequence the subscriber's
// next delivery will be assigned) and dropped (the cumulative
// per-subscriber drop count) beside each delivery's own seq, so the
// broker's drop-oldest overflow policy is observable rather than silent: a
// client can always reconcile received + dropped + still-queued ==
// next_seq and detect loss the moment a sequence number is skipped.
package wire

import "fmt"

// Op names the protocol operations.
type Op string

const (
	OpSubscribe   Op = "subscribe"
	OpUnsubscribe Op = "unsubscribe"
	OpPublish     Op = "publish"
	OpFeedback    Op = "feedback"
	// OpSession converts the connection into a server-push delivery stream
	// for one subscriber: after the OK ack, the server sends coalesced
	// delivery frames (Response values with deliveries/next_seq/dropped)
	// until the subscriber is unsubscribed, the client closes or writes
	// anything, or the server shuts down. No other op is served on a
	// session connection.
	OpSession Op = "session"
	OpStats   Op = "stats"
	OpProfile Op = "profile"
	// OpFetch retrieves a retained document's raw content (requires the
	// server to run with content retention).
	OpFetch Op = "fetch"
	// OpExport downloads a subscriber's serialized profile; OpImport
	// subscribes with a previously exported profile — together they make
	// profiles portable across brokers.
	OpExport Op = "export"
	OpImport Op = "import"
)

// Request is one client request. Exactly the fields relevant to Op are set.
type Request struct {
	Op   Op     `json:"op"`
	User string `json:"user,omitempty"`
	// Learner selects the profile algorithm at subscribe and import time:
	// "MM" or "MMND" (core.NewNamed); empty means MM at subscribe.
	Learner string `json:"learner,omitempty"`
	// Keywords optionally seed an MM profile at subscribe time; with any
	// other learner the subscribe is refused.
	Keywords []string `json:"keywords,omitempty"`
	// Content is the raw page for publish.
	Content string `json:"content,omitempty"`
	// Doc and Relevant carry a feedback judgment.
	Doc      int64 `json:"doc,omitempty"`
	Relevant bool  `json:"relevant,omitempty"`
	// Batch bounds how many deliveries a session coalesces into one pushed
	// frame (≤ 0 means the server default of 64).
	Batch int `json:"batch,omitempty"`
	// StateLen is the length of the serialized profile an import carries:
	// the StateLen bytes after the line's newline, which are State. Writers
	// set it from State; on any other op it is refused.
	StateLen int    `json:"state_len,omitempty"`
	State    []byte `json:"-"`
	// Trace carries propagated trace context ("<trace>-<span>", two
	// 16-hex-digit ids — see trace.FormatContext) on publish and feedback.
	// When present and well-formed, the server joins the caller's trace and
	// captures the request regardless of its own sampling decision.
	// Malformed context is treated as absent, never an error.
	Trace string `json:"trace,omitempty"`
}

// DeliveryMsg is one pushed document in a session frame.
type DeliveryMsg struct {
	Doc   int64   `json:"doc"`
	Score float64 `json:"score"`
	// Seq is the delivery's subscriber-scoped sequence number. Consecutive
	// received deliveries with a gap between their Seq values lost exactly
	// that many deliveries to the queue's drop-oldest policy (or to another
	// consumer draining the same subscriber).
	Seq uint64 `json:"seq"`
}

// StatsMsg mirrors pubsub.Counters plus index size.
type StatsMsg struct {
	Published    int64 `json:"published"`
	Deliveries   int64 `json:"deliveries"`
	Dropped      int64 `json:"dropped"`
	Feedbacks    int64 `json:"feedbacks"`
	Subscribers  int   `json:"subscribers"`
	IndexVectors int   `json:"index_vectors"`
	// IndexDistinct counts the distinct vectors IndexVectors share:
	// equal vectors are one index entry.
	IndexDistinct int `json:"index_distinct"`
	IndexTerms    int `json:"index_terms"`
}

// ProfileMsg describes a subscriber's current profile.
type ProfileMsg struct {
	Learner string     `json:"learner"`
	Size    int        `json:"size"`
	Vectors [][]string `json:"vectors,omitempty"` // top terms per vector
}

// Response is the server's reply to one request — and, on a session
// connection, the frame format of every pushed delivery batch.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Doc is the id assigned by publish.
	Doc int64 `json:"doc,omitempty"`
	// Delivered is the fan-out count of a publish.
	Delivered int `json:"delivered,omitempty"`
	// Deliveries fills session frames.
	Deliveries []DeliveryMsg `json:"deliveries,omitempty"`
	// NextSeq is the sequence number the subscriber's next delivery will be
	// assigned; Dropped is the subscriber's cumulative drop count. Set on
	// the session ack and every frame: together with the per-
	// delivery seq values they make every dropped delivery observable
	// (received + dropped + still-queued always equals next_seq).
	NextSeq uint64 `json:"next_seq,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// Closed marks the final deliveries of an unsubscribed subscriber: the
	// attached deliveries (possibly none) were queued before the close and
	// no more will follow.
	Closed  bool        `json:"closed,omitempty"`
	Stats   *StatsMsg   `json:"stats,omitempty"`
	Profile *ProfileMsg `json:"profile,omitempty"`
	// Content answers fetch.
	Content string `json:"content,omitempty"`
	// Learner and State answer export; State is the StateLen raw bytes
	// after the line's newline, as in Request.
	Learner  string `json:"learner,omitempty"`
	StateLen int    `json:"state_len,omitempty"`
	State    []byte `json:"-"`
	// Trace is the trace id (16 hex digits) under which the server captured
	// this request, when it did; clients print it so an operator can jump
	// straight to /tracez?trace=<id>.
	Trace string `json:"trace,omitempty"`
}

// errResponse builds a failure reply.
func errResponse(format string, args ...any) Response {
	return Response{OK: false, Error: fmt.Sprintf(format, args...)}
}
