package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"mmprofile/internal/pubsub"
)

// testServer is a Server on a loopback listener, with the listener's
// address: tests dial that, not anything Serve stores, which they may
// reach before Serve does.
type testServer struct {
	*Server
	addr string
}

// startServerOpts runs a server for a broker built from opts on a loopback
// listener and returns a connected client, the server and the broker (so
// tests can drive it from underneath the wire layer, e.g. closing a
// subscriber without going through OpUnsubscribe); shutdown is registered
// as cleanup.
func startServerOpts(t *testing.T, opts pubsub.Options) (*Client, *testServer, *pubsub.Broker) {
	t.Helper()
	b := pubsub.New(opts)
	srv := NewServer(b, func(string, ...any) {})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, &testServer{srv, lis.Addr().String()}, b
}

// openSession dials a second connection to srv and switches it into push
// mode for user; reads on it give up after ten seconds rather than hanging
// the test binary.
func openSession(t *testing.T, srv *testServer, user string, batch int) *Session {
	t.Helper()
	sc, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	if err := sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	sess, err := sc.Session(user, batch)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// recvN reads frames until n deliveries have arrived and returns them.
func recvN(t *testing.T, sess *Session, n int) []DeliveryMsg {
	t.Helper()
	var out []DeliveryMsg
	for len(out) < n {
		frame, err := sess.Recv()
		if err != nil {
			t.Fatalf("after %d of %d deliveries: %v", len(out), n, err)
		}
		out = append(out, frame.Deliveries...)
	}
	return out
}

// TestSessionReportsDropOldestGap pins the end-to-end loss-observability
// contract over a real socket: queue of 2, five matching publishes, and the
// session must carry the two surviving deliveries with the two highest
// sequence numbers plus next_seq/dropped values that account for every
// discarded one.
func TestSessionReportsDropOldestGap(t *testing.T) {
	c, srv, _ := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 2})
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Publish(catPage); err != nil {
			t.Fatal(err)
		}
	}
	sess := openSession(t, srv, "alice", 0)
	if sess.NextSeq() != 5 || sess.Dropped() != 3 {
		t.Fatalf("ack: next_seq %d, dropped %d, want 5 and 3", sess.NextSeq(), sess.Dropped())
	}
	ds := recvN(t, sess, 2)
	if len(ds) != 2 || ds[0].Seq != 3 || ds[1].Seq != 4 {
		t.Fatalf("deliveries = %+v, want seqs [3 4]", ds)
	}
	if sess.NextSeq() != 5 || sess.Dropped() != 3 {
		t.Fatalf("frame: next_seq %d, dropped %d, want 5 and 3", sess.NextSeq(), sess.Dropped())
	}
	// The client-side reconciliation the protocol guarantees: the first
	// received seq equals the drop count (seqs 0-2 vanished), and
	// received + dropped == next_seq.
	if got := sess.Received() + sess.Dropped(); got != sess.NextSeq() {
		t.Fatalf("received + dropped = %d, want %d", got, sess.NextSeq())
	}
}

// TestSessionBatchBoundsFrames: the handshake's batch is the most a frame
// carries, and deliveries queued before the session opened are pushed at
// once, oldest first.
func TestSessionBatchBoundsFrames(t *testing.T) {
	c, srv := startServer(t)
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Publish(catPage); err != nil {
			t.Fatal(err)
		}
	}
	sess := openSession(t, srv, "alice", 2)
	for _, want := range []int{2, 2, 1} {
		frame, err := sess.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(frame.Deliveries) != want {
			t.Fatalf("frame of %d deliveries, want %d", len(frame.Deliveries), want)
		}
	}
	if sess.Gaps() != 0 || sess.Received() != 5 {
		t.Fatalf("gaps %d, received %d, want 0 and 5", sess.Gaps(), sess.Received())
	}
}

// TestSessionPushDelivery drives the tentpole path: one connection switches
// into push mode, publishes from another connection arrive as pushed frames
// with contiguous sequence numbers, and an unsubscribe ends the session
// with a final Closed frame — after which the server no longer holds the
// subscriber.
func TestSessionPushDelivery(t *testing.T) {
	c, srv, b := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 64})
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	sc, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sess, err := sc.Session("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Publish(catPage); err != nil {
			t.Fatal(err)
		}
	}
	for sess.Received() < 3 {
		if _, err := sess.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Gaps() != 0 || sess.Dropped() != 0 || sess.NextSeq() != 3 {
		t.Fatalf("gaps %d, dropped %d, next %d, want 0/0/3",
			sess.Gaps(), sess.Dropped(), sess.NextSeq())
	}
	if err := c.Unsubscribe("alice"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		frame, err := sess.Recv()
		if err != nil {
			t.Fatalf("no Closed frame before the stream ended: %v", err)
		}
		if frame.Closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the Closed frame")
		}
	}
	if _, ok := b.Subscription("alice"); ok {
		t.Fatal("closed session left the subscriber registered")
	}
}

// TestSessionUnknownUser checks the session handshake rejects a user that
// was never subscribed.
func TestSessionUnknownUser(t *testing.T) {
	c, _ := startServer(t)
	if _, err := c.Session("ghost", 0); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Fatalf("session for unknown user: %v", err)
	}
}

// TestSessionReturnsClosedTail pins the drain fix: when a subscriber is
// closed broker-side (bypassing OpUnsubscribe) underneath an open session,
// whatever was still queued reaches the client by the Closed frame, and
// later sessions read the user as unknown.
func TestSessionReturnsClosedTail(t *testing.T) {
	c, srv, b := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 64})
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Publish(catPage); err != nil {
			t.Fatal(err)
		}
	}
	sess := openSession(t, srv, "alice", 0)
	b.Unsubscribe("alice") // closes the queue underneath the wire layer
	got := 0
	for {
		frame, err := sess.Recv()
		if err != nil {
			t.Fatalf("no Closed frame before the stream ended: %v", err)
		}
		got += len(frame.Deliveries)
		if frame.Closed {
			break
		}
	}
	if got != 2 {
		t.Fatalf("session on a closed subscriber delivered %d, want the queued 2", got)
	}
	if _, err := c.Session("alice", 0); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Fatalf("session after the Closed frame: %v, want unknown subscriber", err)
	}
}

// TestSessionClosedEmptyUnregisters is the no-tail variant: the close
// surfaces as one empty Closed frame, then the subscriber reads as unknown.
func TestSessionClosedEmptyUnregisters(t *testing.T) {
	c, srv, b := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	if err := c.Subscribe("bob", "", nil); err != nil {
		t.Fatal(err)
	}
	sess := openSession(t, srv, "bob", 0)
	b.Unsubscribe("bob")
	frame, err := sess.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !frame.Closed || len(frame.Deliveries) != 0 {
		t.Fatalf("frame on closed, empty subscriber = %+v, want an empty Closed frame", frame)
	}
	if _, err := c.Session("bob", 0); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Fatalf("session after the Closed frame: %v, want unknown subscriber", err)
	}
}

// TestInProcessSubscriberReachableOverWire: the broker's registry is the
// only subscriber table, so a subscriber the wire server never saw being
// made — in-process Subscribe, or a boot-time SubscribeRestored — answers
// session and profile like one made by a wire subscribe (both said
// "unknown subscriber" while the server kept its own map).
func TestInProcessSubscriberReachableOverWire(t *testing.T) {
	c, srv, b := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 8})
	if _, err := b.SubscribeKeywords("alice", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	doc, _, err := c.Publish(catPage)
	if err != nil {
		t.Fatal(err)
	}
	if ds := recvN(t, openSession(t, srv, "alice", 0), 1); ds[0].Doc != doc {
		t.Fatalf("session delivered %+v, want doc %d", ds, doc)
	}
	p, err := c.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Learner != "MM" || p.Size != 1 || len(p.Vectors) != p.Size {
		t.Fatalf("profile = %+v, want one MM vector", p)
	}
	// And it leaves both the same way.
	b.Unsubscribe("alice")
	if _, err := c.Profile("alice"); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Fatalf("profile after an in-process unsubscribe: %v, want unknown subscriber", err)
	}
}
