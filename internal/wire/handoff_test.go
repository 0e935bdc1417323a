package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
)

// pipeServer is a server with no listener: tests hand it one end of a
// net.Pipe through ServeConn. Its log prints nothing.
func pipeServer(t *testing.T, opts pubsub.Options) (*Server, *pubsub.Broker) {
	t.Helper()
	srv, b, _ := loggedPipeServer(t, opts)
	return srv, b
}

// loggedPipeServer is a pipeServer whose log keeps its records in the
// event ring it returns, as the flight recorder's does.
func loggedPipeServer(t *testing.T, opts pubsub.Options) (*Server, *pubsub.Broker, *obs.EventRing) {
	t.Helper()
	b := pubsub.New(opts)
	ring := obs.NewEventRing(0)
	srv := NewServerLogger(b, obs.NewLogfLogger(func(string, ...any) {}, ring))
	t.Cleanup(func() { srv.Close() })
	return srv, b, ring
}

// pipeConn returns the client end of a fresh connection to srv; every read
// and write on it gives up after ten seconds.
func pipeConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	local, remote := net.Pipe()
	srv.ServeConn(remote)
	t.Cleanup(func() { local.Close() })
	if err := local.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return local
}

// pipeSession opens a push session for user over a net.Pipe.
func pipeSession(t *testing.T, srv *Server, user string, batch int) *Session {
	t.Helper()
	sess, err := NewClient(pipeConn(t, srv)).Session(user, batch)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// anyGoroutines is the baseline for settled when other tests' goroutines
// may still be winding down and only the server's own tables are checked.
const anyGoroutines = 1 << 30

// settled polls until the server holds no connection and no session and
// the process is back to at most baseline goroutines.
func settled(t *testing.T, srv *Server, baseline int) {
	t.Helper()
	var conns, goroutines int
	var sessions float64
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		conns = len(srv.conns)
		srv.mu.Unlock()
		sessions, goroutines = srv.sessions.Value(), runtime.NumGoroutine()
		if conns == 0 && sessions == 0 && goroutines <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("left behind: %d conns, mm_wire_sessions %v, %d goroutines (baseline %d)",
				conns, sessions, goroutines, baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionHugeBatchIsClamped pins the remote crash the batch field used
// to be: MaxInt64 made the session's make() panic after the ack and took the
// process with it, 1e9 asked for 24 GB. A frame can never hold more than
// the queue does, so the request's number sizes nothing.
func TestSessionHugeBatchIsClamped(t *testing.T) {
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 4})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []string{"9223372036854775807", "1000000000"} {
		for i := 0; i < 6; i++ {
			b.Publish(catPage)
		}
		conn := pipeConn(t, srv)
		go fmt.Fprintf(conn, `{"op":"session","user":"alice","batch":%s}`+"\n", batch)
		dec := json.NewDecoder(conn)
		var ack, frame Response
		if err := dec.Decode(&ack); err != nil || !ack.OK {
			t.Fatalf("batch %s: ack %+v, %v", batch, ack, err)
		}
		if err := dec.Decode(&frame); err != nil || len(frame.Deliveries) != 4 {
			t.Fatalf("batch %s: frame of %d deliveries (%v), want the queue's 4", batch, len(frame.Deliveries), err)
		}
		conn.Close()
		settled(t, srv, anyGoroutines) // or the departing session may take the next round's deliveries with it
	}
	// And the server is still there.
	c := NewClient(pipeConn(t, srv))
	if _, err := c.Stats(); err != nil {
		t.Fatalf("server stopped serving: %v", err)
	}
	c.Close()
	settled(t, srv, anyGoroutines)
}

// FuzzSessionHandshake sends an arbitrary first line to a live server on a
// net.Pipe connection, reads whatever comes back and hangs up: no line may
// panic the server (a panic in a connection goroutine kills this process),
// and the connection and its mm_wire_sessions count must both be released.
func FuzzSessionHandshake(f *testing.F) {
	f.Add(`{"op":"session","user":"alice","batch":9223372036854775807}`)
	f.Add(`{"op":"session","user":"alice","batch":-1}`)
	f.Add(`{"op":"session","user":"alice"}` + "\n\n \t x")
	f.Add(`{"op":"session","user":"alice"}{"op":"stats"}`)
	f.Add(`{"op":"session","user":"` + strings.Repeat("a", 1<<20) + `"}`)
	f.Add(`{"op":"stats"}`)
	f.Add(`{"op":"session"`)
	b := pubsub.New(pubsub.Options{Threshold: 0.2, QueueSize: 4})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(b, func(string, ...any) {})
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, line string) {
		b.Publish(catPage)
		local, remote := net.Pipe()
		srv.ServeConn(remote)
		local.SetDeadline(time.Now().Add(200 * time.Millisecond))
		go func() {
			// The server may stop reading mid-line; the deadline ends the write.
			// Once it has the whole line a reply is immediate or not coming.
			_, _ = local.Write([]byte(line + "\n"))
			local.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		}()
		r := bufio.NewReader(local)
		for i := 0; i < 2; i++ { // an ack and a frame, at most
			if _, err := r.ReadString('\n'); err != nil {
				break
			}
		}
		local.Close()
		settled(t, srv, anyGoroutines)
	})
}

// TestSessionGoroutinesReturnToBaseline: handle hands the connection to one
// session goroutine and returns, so an open session is exactly one
// goroutine, and the release handle used to defer — close, conns entry,
// drain count, session gauge — is that goroutine's to do exactly once,
// whichever way the session ends: its client closes, its client stops
// reading (the unsubscribe's Closed frame is never read, so the write bound
// ends it), or it is unsubscribed. 500 sessions, a third ended each way,
// and nothing is left: not a goroutine.
func TestSessionGoroutinesReturnToBaseline(t *testing.T) {
	const n = 500
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	srv.writeTimeout = 200 * time.Millisecond
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
		if _, err := b.SubscribeKeywords(users[i], []string{"cats"}); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()
	sessions := make([]*Session, n)
	for i, u := range users {
		sessions[i] = pipeSession(t, srv, u, 0)
	}
	// A session registers just after its ack, so the last few may still be
	// on their way in — and handle on its way out.
	for deadline := time.Now().Add(10 * time.Second); srv.sessions.Value() != n || runtime.NumGoroutine()-baseline != n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions open: mm_wire_sessions %v, %d goroutines over baseline, want one each",
				n, srv.sessions.Value(), runtime.NumGoroutine()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
	for i, sess := range sessions {
		switch i % 3 {
		case 0:
			sess.Close()
		case 1:
			b.Unsubscribe(users[i])
		case 2:
			b.Unsubscribe(users[i])
			if frame, err := sess.Recv(); err != nil || !frame.Closed {
				t.Fatalf("recv after unsubscribe: %+v, %v", frame, err)
			}
		}
	}
	settled(t, srv, baseline)
}

// TestSplitNewlineKeepsSession: a session request is its line, newline
// included, however the client's writes split it. Split at every byte, it
// is acked once and the session delivers; then any byte the client sends
// ends the session.
func TestSplitNewlineKeepsSession(t *testing.T) {
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	req := []byte(`{"op":"session","user":"alice"}` + "\n")
	for k := 1; k < len(req); k++ {
		conn := pipeConn(t, srv)
		for _, part := range [][]byte{req[:k], req[k:]} {
			if _, err := conn.Write(part); err != nil {
				t.Fatalf("split at %d: %v", k, err)
			}
		}
		dec := json.NewDecoder(conn)
		var ack, frame Response
		if err := dec.Decode(&ack); err != nil || !ack.OK || len(ack.Deliveries) != 0 {
			t.Fatalf("split at %d: ack %+v, %v", k, ack, err)
		}
		doc, _ := b.Publish(catPage)
		if err := dec.Decode(&frame); err != nil || len(frame.Deliveries) != 1 || frame.Deliveries[0].Doc != doc {
			t.Fatalf("split at %d: frame %+v, %v; want doc %d alone", k, frame, err, doc)
		}
		if _, err := conn.Write([]byte("\n")); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&frame); err == nil {
			t.Fatalf("split at %d: a stray byte left the session open: %+v", k, frame)
		}
		settled(t, srv, anyGoroutines) // or the departing session may take the next round's delivery
	}
}

// TestTwoSessionsOneUserBothClose: two sessions on one subscriber compete
// for its deliveries, and an unsubscribe reaches both — each gets a Closed
// frame, every sequence number went to exactly one of them or was counted
// as dropped, and both are released.
func TestTwoSessionsOneUserBothClose(t *testing.T) {
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		seqs          []uint64
		next, dropped uint64
		err           error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		sess := pipeSession(t, srv, "alice", 3)
		go func() {
			var r result
			for {
				frame, err := sess.Recv()
				if err != nil {
					r.err = err
					break
				}
				for _, d := range frame.Deliveries {
					r.seqs = append(r.seqs, d.Seq)
				}
				if frame.Closed {
					r.next, r.dropped = frame.NextSeq, frame.Dropped
					break
				}
			}
			results <- r
		}()
	}
	for i := 0; i < 200; i++ {
		b.Publish(catPage)
	}
	b.Unsubscribe("alice")
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("a session ended without its Closed frame: %v", r.err)
		}
		if r.next != 200 {
			t.Errorf("Closed frame reports next_seq %d, want 200", r.next)
		}
		for _, seq := range r.seqs {
			if seen[seq] {
				t.Errorf("seq %d reached both sessions", seq)
			}
			seen[seq] = true
		}
		if i == 1 && uint64(len(seen))+r.dropped != r.next {
			t.Errorf("received %d + dropped %d != next_seq %d", len(seen), r.dropped, r.next)
		}
	}
	settled(t, srv, anyGoroutines)
}

// stallLogged fails t unless the server's log ring holds the record the
// write bound leaves when it releases a client that stopped reading: the
// flight recorder's way to name the stalled consumer. user is empty for a
// request connection.
func stallLogged(t *testing.T, ring *obs.EventRing, user string) {
	t.Helper()
	for _, e := range ring.Snapshot() {
		if e.Msg == "wire: client stopped reading" && e.Level == "WARN" &&
			e.Attrs["remote_addr"] == "pipe" && (user == "" || e.Attrs["user"] == user) {
			return
		}
	}
	t.Fatalf("no stopped-reader record for %q in the log ring: %+v", user, ring.Snapshot())
}

// TestStoppedReaderIsReleased: a session whose client stopped reading is
// blocked writing a frame nobody takes, and the write bound ends it, so
// everything is released while the client still never reads. The
// subscription survives: the bound lets go of the consumer, not the
// profile.
func TestStoppedReaderIsReleased(t *testing.T) {
	srv, b, ring := loggedPipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	srv.writeTimeout = 200 * time.Millisecond // long enough for the ack to be read
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	b.Publish(catPage) // queued before the session opens, so its first act is to write it
	conn := pipeConn(t, srv)
	go conn.Write([]byte(`{"op":"session","user":"alice"}` + "\n"))
	var ack Response
	if err := json.NewDecoder(conn).Decode(&ack); err != nil || !ack.OK {
		t.Fatalf("ack %+v, %v", ack, err)
	}
	settled(t, srv, anyGoroutines)
	stallLogged(t, ring, "alice")
	if _, ok := b.Subscription("alice"); !ok {
		t.Fatal("the write bound removed the subscription itself")
	}
}

// TestRequestClientThatStopsReadingIsReleased: a request's reply is written
// under the same bound, so a client that sends a request and never reads
// the reply holds its connection and goroutine only that long.
func TestRequestClientThatStopsReadingIsReleased(t *testing.T) {
	srv, _, ring := loggedPipeServer(t, pubsub.Options{Threshold: 0.2})
	srv.writeTimeout = 50 * time.Millisecond
	conn := pipeConn(t, srv)
	if _, err := conn.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	settled(t, srv, anyGoroutines)
	stallLogged(t, ring, "")
}

// TestCloseEndsOpenSessions: Close ends every session open at that moment
// by closing its connection — each client reads the end of its stream, not
// a frame — and leaves no goroutine, connection or session behind.
func TestCloseEndsOpenSessions(t *testing.T) {
	const n = 50
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	baseline := runtime.NumGoroutine()
	sessions := make([]*Session, n)
	for i := range sessions {
		user := fmt.Sprintf("u%d", i)
		if _, err := b.SubscribeKeywords(user, []string{"cats"}); err != nil {
			t.Fatal(err)
		}
		sessions[i] = pipeSession(t, srv, user, 0)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.sessions.Value() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("mm_wire_sessions %v, want %d open", srv.sessions.Value(), n)
		}
	}
	srv.Close()
	for i, sess := range sessions {
		if _, err := sess.Recv(); !errors.Is(err, io.EOF) {
			t.Errorf("session %d after Close: %v, want EOF", i, err)
		}
	}
	settled(t, srv, baseline)
}

// TestSessionWakeRacesItsLoop: a wake lands anywhere in a session's turn —
// deadline expired, Read returned, deadline cleared, flag cleared, Take —
// and none may be lost. Batch 1 makes every push leave the rest queued, so
// the session also wakes itself from inside Take, while two publishers
// queue 10k deliveries on a 4-slot queue; after the unsubscribe every
// sequence number was received exactly once or counted as dropped.
func TestSessionWakeRacesItsLoop(t *testing.T) {
	const perPublisher = 5000
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2, QueueSize: 4})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	sess := pipeSession(t, srv, "alice", 1)
	seen := map[uint64]bool{}
	var last SessionFrame
	done := make(chan error, 1)
	go func() {
		for {
			frame, err := sess.Recv()
			if err != nil {
				done <- err
				return
			}
			for _, d := range frame.Deliveries {
				if seen[d.Seq] {
					t.Errorf("seq %d received twice", d.Seq)
				}
				seen[d.Seq] = true
			}
			if frame.Closed {
				last = frame
				done <- nil
				return
			}
		}
	}()
	var pubs sync.WaitGroup
	for p := 0; p < 2; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(catPage)
			}
		}()
	}
	pubs.Wait()
	b.Unsubscribe("alice")
	if err := <-done; err != nil {
		t.Fatalf("the session ended without its Closed frame: %v", err)
	}
	if last.NextSeq != 2*perPublisher || uint64(len(seen))+last.Dropped != last.NextSeq {
		t.Fatalf("received %d + dropped %d, next_seq %d; want %d in all", len(seen), last.Dropped, last.NextSeq, 2*perPublisher)
	}
	t.Logf("received %d, dropped %d", len(seen), last.Dropped)
	settled(t, srv, anyGoroutines)
}
