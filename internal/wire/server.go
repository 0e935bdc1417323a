package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/trace"

	// Register the baseline learners so wire subscribers can select them
	// by name (MM and MMND are registered via pubsub's core import).
	_ "mmprofile/internal/rocchio"
)

// Server serves the JSON protocol over a listener, one goroutine per
// request connection and two small ones per push session, all connections
// sharing one broker. It keeps no subscriber table of its own: every op
// resolves its user through the broker, so a subscriber is addressable
// however it was registered.
type Server struct {
	broker *pubsub.Broker
	log    *obs.Logger
	rec    *obs.Recorder // flight recorder; nil → no panic bundles

	// Session-layer instruments, registered into the broker's registry so
	// they ride the same /metrics exposition.
	sessions          *metrics.Gauge   // connections currently in push mode
	sessionFrames     *metrics.Counter // coalesced frames pushed
	sessionDeliveries *metrics.Counter // deliveries pushed across all frames
	slowEvictions     *metrics.Counter // sessions closed by the eviction policy

	mu     sync.Mutex
	closed bool
	lis    net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	done   chan struct{} // closed by Close; unblocks session handlers

	// sessKicks tracks every in-flight push session's kick channel by
	// user, so the slow-consumer eviction policy (mmserver
	// -evict-drop-rate) can end sessions without owning the connection.
	// Guarded by mu.
	sessKicks map[string][]chan string
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
		slowEvictions: reg.Counter("mm_pubsub_slow_evictions_total",
			"Push sessions closed because their windowed drop rate stayed pathological (mmserver -evict-drop-rate)."),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
		sessKicks: make(map[string][]chan string),
	}
}

// addKick registers a session's kick channel under user.
func (s *Server) addKick(user string, ch chan string) {
	s.mu.Lock()
	s.sessKicks[user] = append(s.sessKicks[user], ch)
	s.mu.Unlock()
}

// removeKick unregisters a session's kick channel.
func (s *Server) removeKick(user string, ch chan string) {
	s.mu.Lock()
	chs := s.sessKicks[user]
	if i := slices.Index(chs, ch); i >= 0 {
		chs = slices.Delete(chs, i, i+1)
	}
	if len(chs) == 0 {
		delete(s.sessKicks, user)
	} else {
		s.sessKicks[user] = chs
	}
	s.mu.Unlock()
}

// KickSession ends every push session currently open for user: each
// session's pump sends the client a final error frame carrying reason and
// returns, releasing the connection. The subscription itself survives —
// eviction sheds the consumer, not the profile. Returns how many sessions
// were signalled; each one bumps mm_pubsub_slow_evictions_total and
// writes an audit event through the server's structured log (which the
// flight recorder's ring tees into crash bundles).
func (s *Server) KickSession(user, reason string) int {
	s.mu.Lock()
	n := 0
	for _, ch := range s.sessKicks[user] {
		select {
		case ch <- reason:
			n++
		default: // already signalled
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.slowEvictions.Add(int64(n))
		s.log.Warn("wire: session evicted",
			slog.String("user", user),
			slog.String("reason", reason),
			slog.Int("sessions", n))
	}
	return n
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
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.done)
	}
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
// — handle, or the pump handle handed a session to.
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
	dec := json.NewDecoder(conn)
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
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Warn("wire: decode",
					slog.String("remote_addr", conn.RemoteAddr().String()),
					slog.String("err", err.Error()))
			}
			return
		}
		if tracing {
			d1 = time.Now()
		}
		if req.Op == OpSession {
			// Session mode takes over the connection: once the ack is out the
			// pump owns it and this goroutine — its stack grown by the decode
			// above, its codec state — is gone; the serial request loop never
			// resumes.
			handedOff = s.session(conn, enc, dec.Buffered(), req)
			return
		}
		resp := s.dispatchTimed(req, d0, d1)
		if err := enc.Encode(resp); err != nil {
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
		s.broker.Unsubscribe(req.User)
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
			Published:    c.Published,
			Deliveries:   c.Deliveries,
			Dropped:      c.Dropped,
			Feedbacks:    c.Feedbacks,
			Subscribers:  c.Subscribers,
			IndexVectors: ix.Vectors,
			IndexTerms:   ix.Terms,
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
func (s *Server) importProfile(req Request) Response {
	if req.User == "" || req.Learner == "" {
		return errResponse("wire: import requires user and learner")
	}
	l, err := filter.New(req.Learner)
	if err != nil {
		return errResponse("%v", err)
	}
	if len(req.State) > 0 {
		u, ok := l.(interface{ UnmarshalBinary([]byte) error })
		if !ok {
			return errResponse("wire: learner %q is not restorable", req.Learner)
		}
		if err := u.UnmarshalBinary(req.State); err != nil {
			return errResponse("wire: import %q: %v", req.User, err)
		}
	}
	if _, err := s.broker.Subscribe(req.User, l); err != nil {
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
		// Keyword seeding is MM's bootstrap (paper Section 6); no other
		// learner has one, and dropping the list silently would leave the
		// client with an empty profile it believes is seeded.
		if name != "MM" {
			return errResponse("wire: subscribe: keywords seed an MM profile only, not learner %q", name)
		}
		_, err = s.broker.SubscribeKeywords(req.User, req.Keywords)
	} else {
		var l filter.Learner
		if l, err = filter.New(name); err == nil {
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
// to two fresh goroutines — the pump and the watcher — and reports true; on
// false the connection is still the caller's to release. What a session
// holds at rest is then the connection, its handle on the subscriber's
// queue, two channels and those two goroutines parked on small stacks
// (DESIGN.md §15); everything a frame needs is borrowed for the write.
func (s *Server) session(conn net.Conn, enc *json.Encoder, rest io.Reader, req Request) (handedOff bool) {
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
		return false
	}
	// Push mode inverts the connection: the only thing a client can send is
	// teardown, and that includes bytes the decoder already read past the
	// request.
	if !onlySpace(rest) {
		return false
	}
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("wire: session start",
			slog.String("user", req.User),
			slog.String("remote_addr", conn.RemoteAddr().String()))
	}
	// Buffered so KickSession never blocks holding s.mu; a second kick
	// while one is pending is dropped (the session is ending anyway).
	kick := make(chan string, 1)
	s.addKick(req.User, kick)
	s.sessions.Add(1)
	// The watcher reads the client's half — EOF, a reset, or any stray byte
	// all end the session — so an idle session notices a gone client instead
	// of holding its goroutines and kick entry forever. It returns at the
	// latest when the pump closes conn.
	gone := make(chan struct{})
	go func() {
		onlySpace(conn)
		close(gone)
	}()
	go s.pump(conn, sub, req.User, batch, kick, gone)
	return true
}

// onlySpace reads r to its end and reports whether it held nothing but JSON
// whitespace (a request's own newline may arrive in a later segment than the
// request); it returns false at the first other byte or error.
func onlySpace(r io.Reader) bool {
	var b [8]byte
	for {
		n, err := r.Read(b[:])
		for _, c := range b[:n] {
			if c != ' ' && c != '\n' && c != '\r' && c != '\t' {
				return false
			}
		}
		if err != nil {
			return err == io.EOF
		}
	}
}

// pump owns one session connection: every queued delivery is pushed as soon
// as it exists, coalesced with whatever else is queued (up to batch) into a
// single frame — one write per burst instead of one round trip per
// document. It ends when the subscriber is unsubscribed (the final frame
// carries Closed and whatever was still queued), the client closes or
// writes anything, a push fails, a kick arrives, or the server shuts down —
// and then releases, once, everything the session held.
func (s *Server) pump(conn net.Conn, sub *pubsub.Subscription, user string, batch int, kick chan string, gone <-chan struct{}) {
	defer s.rec.RecoverRepanic()
	defer func() {
		s.removeKick(user, kick)
		s.sessions.Add(-1)
		s.release(conn)
	}()
	ready := sub.Ready()
	for {
		select {
		case <-ready:
			if !s.push(conn, sub, batch) {
				return
			}
		case reason := <-kick:
			_ = json.NewEncoder(conn).Encode(errResponse("wire: session evicted: %s", reason))
			return
		case <-gone:
			return
		case <-s.done:
			_ = json.NewEncoder(conn).Encode(errResponse("wire: server shutting down"))
			return
		}
	}
}

// push takes what is queued for sub, up to batch deliveries, and writes it
// as one frame whose next_seq and dropped are from the same instant as its
// deliveries. It reports whether the session goes on.
func (s *Server) push(conn net.Conn, sub *pubsub.Subscription, batch int) bool {
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
	if _, err := conn.Write(f.out); err != nil {
		return false
	}
	if n > 0 {
		s.sessionFrames.Inc()
		s.sessionDeliveries.Add(int64(n))
	}
	return !closed
}

// profile describes a subscriber's learner: name, size and each vector's
// heaviest terms, all read under one hold of the subscriber's lock so a
// concurrent feedback cannot make size and vectors disagree.
func (s *Server) profile(req Request) Response {
	sub, ok := s.broker.Subscription(req.User)
	if !ok {
		return errResponse("wire: unknown subscriber %q", req.User)
	}
	msg := &ProfileMsg{}
	// A hydration failure leaves the description empty rather than failing
	// the profile request.
	_ = sub.WithLearner(func(l filter.Learner) {
		msg.Learner, msg.Size = l.Name(), l.ProfileSize()
		if vs, ok := l.(filter.VectorSource); ok {
			for _, v := range vs.ProfileVectors() {
				msg.Vectors = append(msg.Vectors, v.TopTerms(5))
			}
		}
	})
	return Response{OK: true, Profile: msg}
}

// Addr returns the bound address once serving (for tests/examples that
// listen on :0).
func (s *Server) Addr() (net.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil, fmt.Errorf("wire: server not serving")
	}
	return s.lis.Addr(), nil
}
