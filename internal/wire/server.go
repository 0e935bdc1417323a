package wire

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/trace"
)

// Server serves the JSON protocol over a listener, one goroutine per
// connection — a request loop, or a push session once the client asks for
// one — all sharing one broker. It keeps no subscriber table of its own:
// every op resolves its user through the broker, so a subscriber is
// addressable however it was registered.
type Server struct {
	broker *pubsub.Broker
	log    *obs.Logger
	rec    *obs.Recorder // flight recorder; nil → no panic bundles

	// Session-layer instruments, registered into the broker's registry so
	// they ride the same /metrics exposition.
	sessions          *metrics.Gauge   // connections currently in push mode
	sessionFrames     *metrics.Counter // coalesced frames pushed
	sessionDeliveries *metrics.Counter // deliveries pushed across all frames

	writeTimeout time.Duration // tests shorten it before handing out connections

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// writeTimeout bounds every write to a client. A frame is at most 64
// deliveries, about 5 KB, and a Write blocks only once the client has left
// a whole socket buffer unread, so a write still blocked after 10 s means
// the client stopped reading: the connection is released, and the loss a
// reader that merely lags can cause stays in the queue's dropped count.
const writeTimeout = 10 * time.Second

// session is a push session's handle: what a wake needs to reach the one
// goroutine that owns the connection, parked in its Read.
type session struct {
	conn  net.Conn
	woken atomic.Bool // the read deadline is expired, or about to be
}

// expired is a deadline in the past: a pending Read returns now.
var expired = time.Unix(1, 0)

// wake is the session's OnReady registration: it expires the read deadline
// once per turn of the session's loop. It runs under the subscriber's lock.
func (h *session) wake() {
	if h.woken.CompareAndSwap(false, true) {
		_ = h.conn.SetReadDeadline(expired)
	}
}

// NewServer wraps a broker. The logf signature is kept for compatibility:
// it is adapted into the structured logging pipeline (obs.NewLogfLogger),
// so records render as "msg key=value" lines through logf. logf defaults
// to log.Printf; pass a no-op to silence it. Servers wanting real
// structured output use NewServerLogger.
func NewServer(b *pubsub.Broker, logf func(string, ...any)) *Server {
	return NewServerLogger(b, obs.NewLogfLogger(logf, nil))
}

// NewServerLogger wraps a broker with a structured logger (nil for silence).
func NewServerLogger(b *pubsub.Broker, logger *obs.Logger) *Server {
	reg := b.Metrics()
	return &Server{
		broker: b,
		log:    logger,
		sessions: reg.Gauge("mm_wire_sessions",
			"Wire connections currently held in server-push session mode."),
		sessionFrames: reg.Counter("mm_wire_session_frames_total",
			"Coalesced delivery frames pushed to session connections."),
		sessionDeliveries: reg.Counter("mm_wire_session_deliveries_total",
			"Deliveries pushed to session connections across all frames."),
		writeTimeout: writeTimeout,
		conns:        make(map[net.Conn]struct{}),
	}
}

// bound arms the write deadline for the write that follows it.
func (s *Server) bound(conn net.Conn) {
	_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
}

// stalled logs a write the write bound ended, naming the client that
// stopped reading (user is empty on a request connection), and reports
// whether that is how err came about. Its arguments are plain values: an
// attribute built in push's frame would outgrow the session goroutine's
// first stack on every write.
func (s *Server) stalled(err error, conn net.Conn, user string) bool {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	attrs := []slog.Attr{slog.String("remote_addr", conn.RemoteAddr().String())}
	if user != "" {
		attrs = append(attrs, slog.String("user", user))
	}
	s.log.Warn("wire: client stopped reading", attrs...)
	return true
}

// SetRecorder attaches a flight recorder: a panic in a connection handler
// then writes a diagnostic bundle before crashing the process as before.
// Call before Serve.
func (s *Server) SetRecorder(rec *obs.Recorder) { s.rec = rec }

// Serve accepts connections until the listener is closed. It always
// returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ServeConn runs the protocol on one pre-established connection, as if it
// had arrived through Serve's listener. It returns immediately; the
// connection is handled on its own goroutine and participates in Close's
// drain like any accepted one. Used for transports that never touch a
// listener — net.Pipe in tests and mmload's in-process session harness.
// The connection's deadlines are how a push session wakes and how any write
// to a client that stopped reading gives up.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.handle(conn)
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain. A push session's client sees its stream end (EOF).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// release closes a connection and gives back its conns entry and its count
// in Close's drain: the last act of whichever goroutine owns the connection
// — handle, or the session goroutine handle handed it to.
func (s *Server) release(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

func (s *Server) handle(conn net.Conn) {
	// Outermost so it sees any panic from the request loop: the bundle is
	// written, then the panic resumes and crashes the process as before.
	defer s.rec.RecoverRepanic()
	handedOff := false
	defer func() {
		if !handedOff {
			s.release(conn)
		}
	}()
	rd := newRequestReader(conn)
	enc := json.NewEncoder(conn)
	// The decode clocks are read only when the broker can trace at all, so
	// untraced servers keep the old two-syscalls-per-request loop.
	tracing := s.broker.Tracer().Enabled()
	for {
		var d0, d1 time.Time
		if tracing {
			d0 = time.Now()
		}
		var req Request
		var resp Response
		var refused refusal
		switch err := rd.next(&req); {
		case errors.As(err, &refused):
			resp = errResponse("%v", refused)
		case err != nil:
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Warn("wire: decode",
					slog.String("remote_addr", conn.RemoteAddr().String()),
					slog.String("err", err.Error()))
			}
			return
		case req.Op == OpSession:
			// Session mode takes over the connection: once the ack is out the
			// session goroutine owns it and this one — its stack grown by the
			// decode above, its read buffer — is gone; the serial request loop
			// never resumes.
			handedOff = s.session(conn, enc, rd.buffered(), req)
			return
		default:
			if tracing {
				d1 = time.Now()
			}
			resp = s.dispatchTimed(req, d0, d1)
		}
		// The reply's line, then its state: an export's profile as it is.
		resp.StateLen = len(resp.State)
		s.bound(conn)
		err := enc.Encode(resp)
		if err == nil && len(resp.State) > 0 {
			_, err = conn.Write(resp.State)
		}
		if err != nil {
			if s.stalled(err, conn, "") {
				return
			}
			s.log.Warn("wire: encode",
				slog.String("remote_addr", conn.RemoteAddr().String()),
				slog.String("err", err.Error()),
				slog.String("trace_id", resp.Trace))
			return
		}
	}
}

// dispatch executes one request against the broker, reading its own decode
// timestamp (tests and fuzzing enter here).
func (s *Server) dispatch(req Request) Response {
	now := time.Now()
	return s.dispatchTimed(req, now, now)
}

// dispatchTimed executes one request. d0/d1 bracket the request decode:
// the wire.decode child span covers reading and parsing the request off
// the socket — including any wait for the client's bytes, which is why
// idle long-lived connections show large decode spans only when the next
// request was itself sampled.
func (s *Server) dispatchTimed(req Request, d0, d1 time.Time) Response {
	switch req.Op {
	case OpSubscribe:
		return s.subscribe(req)
	case OpUnsubscribe:
		if err := s.broker.Unsubscribe(req.User); err != nil {
			return errResponse("%v", err)
		}
		return Response{OK: true}
	case OpPublish:
		return s.publishOp(req, d0, d1)
	case OpFeedback:
		return s.feedbackOp(req, d0, d1)
	case OpSession:
		// Reachable only through direct dispatch (tests, fuzzing): on a live
		// connection the request loop hands session off before dispatching.
		return errResponse("wire: session requires a dedicated connection")
	case OpStats:
		c := s.broker.Stats()
		ix := s.broker.IndexStats()
		return Response{OK: true, Stats: &StatsMsg{
			Published:     c.Published,
			Deliveries:    c.Deliveries,
			Dropped:       c.Dropped,
			Feedbacks:     c.Feedbacks,
			Subscribers:   c.Subscribers,
			IndexVectors:  ix.Vectors,
			IndexDistinct: ix.Distinct,
			IndexTerms:    ix.Terms,
		}}
	case OpProfile:
		return s.profile(req)
	case OpFetch:
		content, ok := s.broker.DocumentContent(req.Doc)
		if !ok {
			return errResponse("wire: document %d not retained with content", req.Doc)
		}
		return Response{OK: true, Content: content}
	case OpExport:
		snap, err := s.broker.ExportProfile(req.User)
		if err != nil {
			return errResponse("%v", err)
		}
		return Response{OK: true, Learner: snap.Learner, State: snap.Data}
	case OpImport:
		return s.importProfile(req)
	default:
		return errResponse("wire: unknown op %q", req.Op)
	}
}

// publishOp runs a publish under a request trace when the broker's tracer
// samples it (or the client propagated sampled context via req.Trace). The
// trace id goes back in the response so the publisher can cite it.
func (s *Server) publishOp(req Request, d0, d1 time.Time) Response {
	sp := s.broker.Tracer().RootAt("wire.publish", d0, trace.ParseContext(req.Trace))
	if sp != nil {
		dec := sp.ChildAt("wire.decode", d0)
		dec.EndAt(d1)
		sp.SetInt("content_bytes", int64(len(req.Content)))
	}
	doc, n := s.broker.PublishSpan(req.Content, sp)
	resp := Response{OK: true, Doc: doc, Delivered: n}
	if sp != nil {
		resp.Trace = sp.Trace().String()
		sp.End()
	}
	return resp
}

// feedbackOp is publishOp's twin for relevance judgments.
func (s *Server) feedbackOp(req Request, d0, d1 time.Time) Response {
	fd := filter.NotRelevant
	if req.Relevant {
		fd = filter.Relevant
	}
	sp := s.broker.Tracer().RootAt("wire.feedback", d0, trace.ParseContext(req.Trace))
	if sp != nil {
		dec := sp.ChildAt("wire.decode", d0)
		dec.EndAt(d1)
	}
	err := s.broker.FeedbackSpan(req.User, req.Doc, fd, sp)
	resp := Response{OK: true}
	if err != nil {
		resp = errResponse("%v", err)
	}
	if sp != nil {
		resp.Trace = sp.Trace().String()
		sp.End()
	}
	return resp
}

// importProfile subscribes req.User with a previously exported profile.
// req.State lies in the connection's read buffer, and Import decodes it
// there: the profile and the index keep nothing of those bytes.
func (s *Server) importProfile(req Request) Response {
	if req.User == "" || req.Learner == "" {
		return errResponse("wire: import requires user and learner")
	}
	if _, err := s.broker.Import(req.User, req.Learner, req.State); err != nil {
		return errResponse("%v", err)
	}
	return Response{OK: true}
}

func (s *Server) subscribe(req Request) Response {
	if req.User == "" {
		return errResponse("wire: subscribe requires user")
	}
	name := req.Learner
	if name == "" {
		name = "MM"
	}
	var err error
	if len(req.Keywords) > 0 {
		// Keyword seeding is MM's bootstrap (paper Section 6); MMND has
		// none, and dropping the list silently would leave the client with
		// an empty profile it believes is seeded.
		if name != "MM" {
			return errResponse("wire: subscribe: keywords seed an MM profile only, not learner %q", name)
		}
		_, err = s.broker.SubscribeKeywords(req.User, req.Keywords)
	} else {
		var l *core.Profile
		if l, err = core.NewNamed(name, nil); err == nil {
			_, err = s.broker.Subscribe(req.User, l)
		}
	}
	if err != nil {
		return errResponse("%v", err)
	}
	return Response{OK: true}
}

// defaultSessionBatch caps deliveries coalesced into one session frame
// when the client doesn't choose (Request.Batch).
const defaultSessionBatch = 64

// session answers OpSession: it acks and, when the ack went out, hands conn
// to one fresh goroutine, serveSession, and reports true; on false the
// connection is still the caller's to release. What a session holds at rest
// is then the connection, its handle, its wake registration on the
// subscriber's queue and that goroutine parked in Read on a small stack
// (DESIGN.md §15); everything a frame needs is borrowed for the write.
func (s *Server) session(conn net.Conn, enc *json.Encoder, rest []byte, req Request) (handedOff bool) {
	s.bound(conn)
	sub, ok := s.broker.Subscription(req.User)
	if !ok {
		_ = enc.Encode(errResponse("wire: unknown subscriber %q", req.User))
		return false
	}
	// A frame can never hold more than the queue does, so nothing is ever
	// sized by the request's number.
	batch := req.Batch
	if batch <= 0 {
		batch = defaultSessionBatch
	}
	batch = min(batch, s.broker.QueueSize())
	next, dropped := sub.DeliveryStats()
	if err := enc.Encode(Response{OK: true, NextSeq: next, Dropped: dropped}); err != nil {
		s.stalled(err, conn, req.User)
		return false
	}
	// Push mode inverts the connection: the only thing a client can send is
	// teardown, and that includes bytes the reader already read past the
	// request's line.
	if len(rest) > 0 {
		return false
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("wire: session start",
			slog.String("user", req.User),
			slog.String("remote_addr", conn.RemoteAddr().String()))
	}
	s.sessions.Add(1)
	go s.serveSession(&session{conn: conn}, sub, req.User, batch)
	return true
}

// serveSession is a push session's one goroutine, and its one wait is the
// Read on the client's half: EOF, an error or any byte ends the session,
// so an idle session notices a gone client, and an expired deadline is a
// wake. A wake pushes what is queued, up to batch deliveries in one frame.
// The session also ends when the subscriber is unsubscribed (the final
// frame carries Closed and whatever was still queued) or a push fails —
// the client is gone, or stopped reading for writeTimeout — and then
// releases, once, everything it held.
func (s *Server) serveSession(h *session, sub *pubsub.Subscription, user string, batch int) {
	defer s.rec.RecoverRepanic()
	cancel := sub.OnReady(h.wake)
	defer func() {
		cancel()
		s.sessions.Add(-1)
		s.release(h.conn)
	}()
	var b [1]byte
	for {
		n, err := h.conn.Read(b[:])
		if n > 0 || err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return
		}
		if err == nil {
			continue
		}
		// Deadline first, flag second: a wake between the two does nothing,
		// but the Take below sees what it announced; a wake after both
		// expires the deadline again.
		_ = h.conn.SetReadDeadline(time.Time{})
		h.woken.Store(false)
		if !s.push(h.conn, sub, user, batch) {
			return
		}
	}
}

// push takes what is queued for sub, up to batch deliveries, and writes it
// as one frame whose next_seq and dropped are from the same instant as its
// deliveries. It reports whether the session goes on.
func (s *Server) push(conn net.Conn, sub *pubsub.Subscription, user string, batch int) bool {
	f := framePool.Get().(*frameScratch)
	defer framePool.Put(f)
	if cap(f.ds) < batch {
		f.ds = make([]pubsub.Delivery, batch)
	}
	n, next, dropped, closed := sub.Take(f.ds[:batch])
	if n == 0 && !closed {
		return true // another session on this user took them
	}
	var ok bool
	if f.out, ok = appendFrame(f.out[:0], f.ds[:n], next, dropped, closed); !ok {
		return false
	}
	s.bound(conn)
	if _, err := conn.Write(f.out); err != nil {
		s.stalled(err, conn, user)
		return false
	}
	if n > 0 {
		s.sessionFrames.Inc()
		s.sessionDeliveries.Add(int64(n))
	}
	return !closed
}

// profile describes a subscriber's profile: learner name, size and each
// vector's heaviest terms, all read under one hold of the subscriber's lock
// so a concurrent feedback cannot make size and vectors disagree. A profile
// that cannot be reached — its hydration failed, or the user unsubscribed
// after the lookup — is an error, as it is to export.
func (s *Server) profile(req Request) Response {
	sub, ok := s.broker.Subscription(req.User)
	if !ok {
		return errResponse("wire: unknown subscriber %q", req.User)
	}
	msg := &ProfileMsg{}
	err := sub.WithLearner(func(l *core.Profile) {
		msg.Learner, msg.Size = l.Name(), l.ProfileSize()
		for _, v := range l.ProfileVectors() {
			msg.Vectors = append(msg.Vectors, v.TopTerms(5))
		}
	})
	if err != nil {
		return errResponse("%v", err)
	}
	return Response{OK: true, Profile: msg}
}
