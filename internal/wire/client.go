package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Client is a typed connection to an mmserver. Methods are synchronous
// request/response; the client is safe for sequential use only (wrap in a
// mutex or pool connections to share).
type Client struct {
	conn net.Conn
	out  bytes.Buffer  // the request being sent: its line, then its state
	enc  *json.Encoder // writes into out
	in   *replyReader
}

// Dial connects to a server: host:port dials TCP, "unix:<path>" dials a
// Unix domain socket (the form mmserver -addr accepts for
// port-and-FD-cheap local deployments and the c100k load harness).
func Dial(addr string) (*Client, error) {
	network, target := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, target = "unix", path
	}
	conn, err := net.DialTimeout(network, target, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connection (tests use net.Pipe).
func NewClient(conn net.Conn) *Client {
	// A resting client holds what a resting server connection does: load
	// harnesses hold 100k of them in one process.
	c := &Client{conn: conn, in: &replyReader{r: bufio.NewReaderSize(conn, minReadBuf)}}
	c.enc = json.NewEncoder(&c.out)
	return c
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteAddr returns the server address this client is connected to.
func (c *Client) RemoteAddr() string { return c.conn.RemoteAddr().String() }

// roundTrip sends one request, its line and its state in one write, and
// reads the reply, surfacing protocol errors as Go errors.
func (c *Client) roundTrip(req Request) (Response, error) {
	req.StateLen = len(req.State)
	c.out.Reset()
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("wire: send %s: %w", req.Op, err)
	}
	c.out.Write(req.State)
	if _, err := c.conn.Write(c.out.Bytes()); err != nil {
		return Response{}, fmt.Errorf("wire: send %s: %w", req.Op, err)
	}
	var resp Response
	if err := c.in.next(&resp); err != nil {
		return Response{}, fmt.Errorf("wire: recv %s: %w", req.Op, err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("wire: %s: %s", req.Op, resp.Error)
	}
	return resp, nil
}

// replyReader reads Responses off a connection, one line each, the line
// followed by its state when it gives a state_len. A Client's round trips
// and then its Session read through one, so bytes read past one reply
// stay for the next.
type replyReader struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer, gathered
}

func (rr *replyReader) next(resp *Response) error {
	line, err := rr.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		rr.long = append(rr.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = rr.r.ReadSlice('\n')
			rr.long = append(rr.long, line...)
		}
		line = rr.long
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := json.Unmarshal(line, resp); err != nil {
		return err
	}
	if resp.StateLen < 0 || resp.StateLen > maxRequestBytes {
		return fmt.Errorf("state_len %d outside [0, %d]", resp.StateLen, maxRequestBytes)
	}
	if resp.StateLen > 0 {
		resp.State = make([]byte, resp.StateLen)
		if _, err := io.ReadFull(rr.r, resp.State); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Subscribe registers a profile under user. learner is "MM" (or empty) or
// "MMND"; keywords optionally seed an MM profile (the server refuses them
// with MMND).
func (c *Client) Subscribe(user, learner string, keywords []string) error {
	_, err := c.roundTrip(Request{Op: OpSubscribe, User: user, Learner: learner, Keywords: keywords})
	return err
}

// Unsubscribe removes the user's profile.
func (c *Client) Unsubscribe(user string) error {
	_, err := c.roundTrip(Request{Op: OpUnsubscribe, User: user})
	return err
}

// Publish pushes one raw page into the system; it returns the assigned
// document id and how many subscribers it was delivered to.
func (c *Client) Publish(content string) (doc int64, delivered int, err error) {
	doc, delivered, _, err = c.PublishTrace(content, "")
	return doc, delivered, err
}

// PublishTrace is Publish with trace plumbing: ctx optionally propagates
// this caller's trace context ("<trace>-<span>", see trace.FormatContext)
// so the server joins an existing trace, and the returned traceID (16 hex
// digits, empty when the server did not capture the request) names the
// server-side trace for /tracez lookup.
func (c *Client) PublishTrace(content, ctx string) (doc int64, delivered int, traceID string, err error) {
	resp, err := c.roundTrip(Request{Op: OpPublish, Content: content, Trace: ctx})
	if err != nil {
		return 0, 0, "", err
	}
	return resp.Doc, resp.Delivered, resp.Trace, nil
}

// Feedback reports a relevance judgment for a document.
func (c *Client) Feedback(user string, doc int64, relevant bool) error {
	_, err := c.FeedbackTrace(user, doc, relevant, "")
	return err
}

// FeedbackTrace is Feedback with trace plumbing; see PublishTrace.
func (c *Client) FeedbackTrace(user string, doc int64, relevant bool, ctx string) (traceID string, err error) {
	resp, err := c.roundTrip(Request{Op: OpFeedback, User: user, Doc: doc, Relevant: relevant, Trace: ctx})
	if err != nil {
		return "", err
	}
	return resp.Trace, nil
}

// Fetch retrieves a retained document's raw content (server must run with
// content retention enabled).
func (c *Client) Fetch(doc int64) (string, error) {
	resp, err := c.roundTrip(Request{Op: OpFetch, Doc: doc})
	if err != nil {
		return "", err
	}
	return resp.Content, nil
}

// Export downloads the user's serialized profile (learner name + state),
// suitable for Import on another server.
func (c *Client) Export(user string) (learner string, state []byte, err error) {
	resp, err := c.roundTrip(Request{Op: OpExport, User: user})
	if err != nil {
		return "", nil, err
	}
	return resp.Learner, resp.State, nil
}

// Import subscribes user with a previously exported profile.
func (c *Client) Import(user, learner string, state []byte) error {
	_, err := c.roundTrip(Request{Op: OpImport, User: user, Learner: learner, State: state})
	return err
}

// Stats fetches broker counters.
func (c *Client) Stats() (StatsMsg, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return StatsMsg{}, err
	}
	if resp.Stats == nil {
		return StatsMsg{}, fmt.Errorf("wire: stats reply without \"stats\"")
	}
	return *resp.Stats, nil
}

// Session switches this client's connection into server-push delivery mode
// for user (see OpSession): after the server's ack the connection carries
// nothing but coalesced delivery frames, read with Recv. batch bounds how
// many deliveries the server packs into one frame (≤ 0 means the server
// default). On success the connection belongs to the returned Session —
// the Client must not be used again.
func (c *Client) Session(user string, batch int) (*Session, error) {
	resp, err := c.roundTrip(Request{Op: OpSession, User: user, Batch: batch})
	if err != nil {
		return nil, err
	}
	s := &Session{conn: c.conn, in: c.in, user: user, nextSeq: resp.NextSeq, dropped: resp.Dropped}
	// A subscriber that has never been delivered to acks with next_seq 0,
	// so the very first delivery is expected to carry seq 0 and anything
	// later is an observable gap. On a subscriber with prior traffic the
	// first received seq anchors gap tracking instead (queued deliveries
	// below the ack's next_seq may still arrive).
	if resp.NextSeq == 0 {
		s.anchored = true
	}
	return s, nil
}

// SessionFrame is one pushed delivery batch from a session connection.
type SessionFrame struct {
	Deliveries []DeliveryMsg
	// NextSeq and Dropped snapshot the subscriber's sequence state when the
	// frame was built; received + dropped + still-queued == next_seq.
	NextSeq uint64
	Dropped uint64
	// Closed marks the final frame of an unsubscribed subscriber.
	Closed bool
}

// Session is the client side of a server-push delivery stream. Recv is
// meant for one goroutine; the counters (Received, Gaps, Dropped, NextSeq)
// may be read concurrently.
type Session struct {
	conn net.Conn
	in   *replyReader
	user string

	mu       sync.Mutex
	received uint64
	gaps     uint64
	nextSeq  uint64
	dropped  uint64
	expect   uint64
	anchored bool
}

// Recv blocks for the next pushed frame. It returns an error when the
// server reports one (shutdown), the stream ends, or the connection
// breaks; a frame with Closed set is the subscriber's last.
func (s *Session) Recv() (SessionFrame, error) {
	var resp Response
	if err := s.in.next(&resp); err != nil {
		return SessionFrame{}, fmt.Errorf("wire: session recv %s: %w", s.user, err)
	}
	if !resp.OK {
		return SessionFrame{}, fmt.Errorf("wire: session %s: %s", s.user, resp.Error)
	}
	s.mu.Lock()
	for _, d := range resp.Deliveries {
		if s.anchored && d.Seq > s.expect {
			s.gaps += d.Seq - s.expect
		}
		s.anchored = true
		s.expect = d.Seq + 1
		s.received++
	}
	s.nextSeq = resp.NextSeq
	s.dropped = resp.Dropped
	s.mu.Unlock()
	return SessionFrame{
		Deliveries: resp.Deliveries,
		NextSeq:    resp.NextSeq,
		Dropped:    resp.Dropped,
		Closed:     resp.Closed,
	}, nil
}

// Received returns how many deliveries Recv has consumed.
func (s *Session) Received() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.received }

// Gaps returns the cumulative count of sequence numbers skipped between
// consecutively received deliveries — the client-side view of loss.
func (s *Session) Gaps() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.gaps }

// Dropped returns the server's cumulative drop count for this subscriber
// as of the last frame (or the ack).
func (s *Session) Dropped() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.dropped }

// NextSeq returns the subscriber's next sequence number as of the last
// frame (or the ack).
func (s *Session) NextSeq() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.nextSeq }

// Close tears down the session by closing the connection; the server
// notices and releases its end.
func (s *Session) Close() error { return s.conn.Close() }

// Profile fetches a description of the user's current profile.
func (c *Client) Profile(user string) (ProfileMsg, error) {
	resp, err := c.roundTrip(Request{Op: OpProfile, User: user})
	if err != nil {
		return ProfileMsg{}, err
	}
	if resp.Profile == nil {
		return ProfileMsg{}, fmt.Errorf("wire: profile reply without \"profile\"")
	}
	return *resp.Profile, nil
}
