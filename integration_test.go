// End-to-end integration tests: the server mmserver runs (internal/server)
// with persistence, exercised through real sockets and real state
// directories.
package mmprofile_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/server"
	"mmprofile/internal/wire"
)

// newServer builds a silent server from cfg.
func newServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.New(cfg, server.Seams{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serve runs srv on a loopback socket and returns its address and a
// shutdown func (Stop, then Serve's return).
func serve(t *testing.T, srv *server.Server) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	return lis.Addr().String(), func() {
		srv.Stop()
		if err := <-done; !errors.Is(err, net.ErrClosed) {
			t.Errorf("serve: %v", err)
		}
	}
}

// startStack boots a server (durable in dir, when given) and returns a
// connected client and a shutdown func. maxResident > 0 is mmserver's
// -max-resident-profiles: restored users boot as evicted stubs and hydrate
// from the store on first use.
func startStack(t *testing.T, dir string, maxResident int) (*wire.Client, func()) {
	t.Helper()
	addr, stop := serve(t, newServer(t, server.Config{
		Threshold: 0.2, Queue: 64, RetainBody: true, StateDir: dir, MaxResident: maxResident,
	}))
	c, err := wire.Dial(addr)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return c, func() { c.Close(); stop() }
}

const integPage = "<html><head><title>t</title></head><body>cats and kittens and cat toys</body></html>"

// TestIntegrationLifecycle drives subscribe → publish → session → feedback
// → profile → fetch over real sockets.
func TestIntegrationLifecycle(t *testing.T) {
	c, shutdown := startStack(t, "", 0)
	defer shutdown()

	if err := c.Subscribe("alice", "", []string{"cats", "kittens"}); err != nil {
		t.Fatal(err)
	}
	doc, delivered, err := c.Publish(integPage)
	if err != nil || delivered != 1 {
		t.Fatalf("publish: %v, delivered %d", err, delivered)
	}
	sess := openSession(t, c, "alice")
	defer sess.Close()
	frame, err := sess.Recv()
	if err != nil || len(frame.Deliveries) != 1 || frame.Deliveries[0].Doc != doc {
		t.Fatalf("session frame: %v %+v", err, frame)
	}
	if err := c.Feedback("alice", doc, true); err != nil {
		t.Fatal(err)
	}
	p, err := c.Profile("alice")
	if err != nil || p.Size < 1 {
		t.Fatalf("profile: %v %+v", err, p)
	}
	content, err := c.Fetch(doc)
	if err != nil || content != integPage {
		t.Fatalf("fetch: %v %q", err, content)
	}
	st, err := c.Stats()
	if err != nil || st.Published != 1 || st.Feedbacks != 1 {
		t.Fatalf("stats: %v %+v", err, st)
	}
}

// TestIntegrationDurability restarts the whole stack and checks the
// adapted profile survives: the same page must be delivered to the
// restored subscriber without resubscribing.
func TestIntegrationDurability(t *testing.T) {
	dir := t.TempDir()
	c, shutdown := startStack(t, dir, 0)
	if err := c.Subscribe("alice", "", []string{"cats", "kittens"}); err != nil {
		t.Fatal(err)
	}
	doc, _, err := c.Publish(integPage)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feedback("alice", doc, true); err != nil {
		t.Fatal(err)
	}
	before, err := c.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	shutdown() // includes closing the store

	c2, shutdown2 := startStack(t, dir, 0)
	defer shutdown2()
	after, err := c2.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != before.Size || after.Learner != before.Learner {
		t.Fatalf("profile changed across restart: %+v vs %+v", after, before)
	}
	doc2, delivered, err := c2.Publish(integPage)
	if err != nil || delivered != 1 {
		t.Fatalf("restored subscriber missed delivery: %v, %d", err, delivered)
	}
	// The restored subscriber is addressable by session too.
	sess := openSession(t, c2, "alice")
	defer sess.Close()
	if frame, err := sess.Recv(); err != nil || len(frame.Deliveries) != 1 || frame.Deliveries[0].Doc != doc2 {
		t.Fatalf("restored subscriber's session frame: %v %+v", err, frame)
	}
}

// TestIntegrationLazyHydration restarts the stack with a residency bound
// of one: restored users boot evicted, hydrate on first touch over the
// wire, and adapted profiles still survive bit-exact.
func TestIntegrationLazyHydration(t *testing.T) {
	dir := t.TempDir()
	c, shutdown := startStack(t, dir, 0)
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := c.Subscribe(u, "", []string{"cats", "kittens"}); err != nil {
			t.Fatal(err)
		}
	}
	doc, _, err := c.Publish(integPage)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := c.Feedback(u, doc, true); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Profile("bob")
	if err != nil {
		t.Fatal(err)
	}
	shutdown()

	c2, shutdown2 := startStack(t, dir, 1)
	defer shutdown2()
	// Evicted stubs are off the match path until first touched.
	if _, delivered, err := c2.Publish(integPage); err != nil || delivered != 0 {
		t.Fatalf("evicted subscribers took deliveries: %v, %d", err, delivered)
	}
	// A profile request hydrates bob from the store.
	after, err := c2.Profile("bob")
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != before.Size || after.Learner != before.Learner {
		t.Fatalf("profile changed across lazy restart: %+v vs %+v", after, before)
	}
	// Hydrated bob is back in the index; the bound keeps others evicted.
	if _, delivered, err := c2.Publish(integPage); err != nil || delivered != 1 {
		t.Fatalf("hydrated subscriber missed delivery: %v, %d", err, delivered)
	}
	// Feedback through the wire hydrates carol (evicting bob) and adapts.
	doc2, _, err := c2.Publish(integPage)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Feedback("carol", doc2, true); err != nil {
		t.Fatal(err)
	}
	// Every stub is addressable over the wire, hydrated or not: a session
	// hydrates nothing, a profile request hydrates its user.
	for _, u := range []string{"alice", "bob", "carol"} {
		openSession(t, c2, u).Close()
		if p, err := c2.Profile(u); err != nil || p.Size == 0 {
			t.Fatalf("profile %s after lazy restart: %+v, %v", u, p, err)
		}
	}
}

// TestIntegrationManyClients hammers one stack from concurrent
// connections mixing subscribes, publishes, push sessions and feedback.
func TestIntegrationManyClients(t *testing.T) {
	c0, shutdown := startStack(t, "", 0)
	defer shutdown()

	const users = 6
	sessions := make([]*wire.Session, users)
	for i := range sessions {
		user := fmt.Sprintf("u%d", i)
		if err := c0.Subscribe(user, "", []string{"cats"}); err != nil {
			t.Fatal(err)
		}
		sessions[i] = openSession(t, c0, user)
	}

	var publishers, consumers sync.WaitGroup
	for g := 0; g < 4; g++ {
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			c, err := wire.Dial(c0.RemoteAddr()) // each goroutine needs its own conn
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				if _, _, err := c.Publish(integPage); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i, sess := range sessions {
		consumers.Add(1)
		go func(user string, sess *wire.Session) {
			defer consumers.Done()
			c, err := wire.Dial(c0.RemoteAddr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for judged := 0; judged < 10; {
				frame, err := sess.Recv()
				if err != nil {
					return // closed below: the run is over
				}
				for _, d := range frame.Deliveries {
					if err := c.Feedback(user, d.Doc, true); err != nil {
						t.Error(err)
						return
					}
					judged++
				}
			}
		}(fmt.Sprintf("u%d", i), sess)
	}
	publishers.Wait()
	judged := make(chan struct{})
	go func() { consumers.Wait(); close(judged) }()
	select {
	case <-judged:
	case <-time.After(10 * time.Second):
		t.Error("a session never received its ten deliveries")
	}
	for _, sess := range sessions {
		sess.Close() // unblocks a starved consumer's Recv
	}
	consumers.Wait()

	st, err := c0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 100 {
		t.Errorf("published = %d, want 100", st.Published)
	}
	if st.Deliveries == 0 || st.Feedbacks == 0 {
		t.Errorf("no traffic: %+v", st)
	}
}

// openSession dials the server c is connected to and switches the new
// connection into push mode for user (the stack does not export its
// listener).
func openSession(t *testing.T, c *wire.Client, user string) *wire.Session {
	t.Helper()
	sc, err := wire.Dial(c.RemoteAddr())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sc.Session(user, 0)
	if err != nil {
		sc.Close()
		t.Fatal(err)
	}
	return sess
}
