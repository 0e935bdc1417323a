package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/vsm"
)

// startServer is startServerOpts with the configuration most tests use.
func startServer(t *testing.T) (*Client, *testServer) {
	t.Helper()
	c, srv, _ := startServerOpts(t, pubsub.Options{Threshold: 0.2, QueueSize: 64})
	return c, srv
}

// catPage is a page whose stemmed terms overlap the "cats" keyword seed.
const catPage = "<html><body>cats and cat toys for every cat lover</body></html>"

func TestEndToEndSubscribePublishSessionFeedback(t *testing.T) {
	c, srv := startServer(t)
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	doc, delivered, err := c.Publish(catPage)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	ds := recvN(t, openSession(t, srv, "alice", 0), 1)
	if ds[0].Doc != doc {
		t.Fatalf("session delivered %+v, want doc %d", ds, doc)
	}
	if err := c.Feedback("alice", doc, true); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 1 || st.Feedbacks != 1 || st.Subscribers != 1 {
		t.Errorf("stats = %+v", st)
	}
	p, err := c.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Learner != "MM" || p.Size < 1 || len(p.Vectors) != p.Size {
		t.Errorf("profile = %+v", p)
	}
}

// TestSubscribeLearnerSelection: the server serves MM and MMND; the
// baselines and an unknown name are refused, on subscribe and on import,
// with an error that names the learner and the served set, and nothing is
// subscribed.
func TestSubscribeLearnerSelection(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Subscribe("bob", "MMND", nil); err != nil {
		t.Fatal(err)
	}
	p, err := c.Profile("bob")
	if err != nil {
		t.Fatal(err)
	}
	if p.Learner != "MMND" {
		t.Errorf("learner = %q", p.Learner)
	}
	_, state, err := c.Export("bob")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RI", "NRN", "NoSuchAlgorithm"} {
		for op, err := range map[string]error{
			"subscribe": c.Subscribe("eve", name, nil),
			"import":    c.Import("eve", name, state),
		} {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) || !strings.Contains(err.Error(), "MMND") {
				t.Errorf("%s learner %s: %v, want an error naming %s and the served set", op, name, err, name)
			}
		}
	}
	if _, err := c.Profile("eve"); err == nil {
		t.Error("a refused learner left a subscriber behind")
	}
}

// TestMMNDRoundTrip: an MMND profile exported and imported under another
// user exports the same learner and the same bytes.
func TestMMNDRoundTrip(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Subscribe("nd", "MMND", nil); err != nil {
		t.Fatal(err)
	}
	doc, _, err := c.Publish(catPage)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feedback("nd", doc, true); err != nil {
		t.Fatal(err)
	}
	learner, state, err := c.Export("nd")
	if err != nil || learner != "MMND" {
		t.Fatalf("export = %q, %v", learner, err)
	}
	if err := c.Import("nd2", learner, state); err != nil {
		t.Fatal(err)
	}
	learner2, state2, err := c.Export("nd2")
	if err != nil || learner2 != "MMND" || !bytes.Equal(state2, state) {
		t.Errorf("re-export = %q (%d bytes), %v; want MMND and the %d bytes imported", learner2, len(state2), err, len(state))
	}
	if p, err := c.Profile("nd2"); err != nil || p.Size != 1 {
		t.Errorf("imported profile = %+v, %v", p, err)
	}
}

// TestMaximalProfileRoundTrip: the largest profile maxRequestBytes is
// sized for — 768 MM vectors, each of vsm.MaxDocumentTerms 25-byte terms —
// exports, imports under another user and exports again with the same
// bytes over net.Pipe. The import keeps nothing of the read buffer it was
// decoded in: an import of as many zero bytes, read into that buffer
// next, changes nothing.
func TestMaximalProfileRoundTrip(t *testing.T) {
	const vectors, word = 768, 25
	p := core.NewDefault()
	for v := 0; v < vectors; v++ {
		m := make(map[string]float64, vsm.MaxDocumentTerms)
		for i := 0; i < vsm.MaxDocumentTerms; i++ {
			m[fmt.Sprintf("t%0*d", word-1, v*vsm.MaxDocumentTerms+i)] = 1 + float64(i)/7
		}
		p.Observe(vsm.FromMap(m).Normalized(), filter.Relevant)
	}
	if p.ProfileSize() != vectors {
		t.Fatalf("built a profile of %d vectors, want %d", p.ProfileSize(), vectors)
	}
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2})
	if _, err := b.Subscribe("max", p); err != nil {
		t.Fatal(err)
	}
	c := NewClient(pipeConn(t, srv))
	learner, state, err := c.Export("max")
	if err != nil || len(state) < 2_600_000 {
		t.Fatalf("export: %d bytes, %v; want the 2.6 MB of a maximal profile", len(state), err)
	}
	if err := c.Import("max2", learner, state); err != nil {
		t.Fatal(err)
	}
	if err := c.Import("zeros", learner, make([]byte, len(state))); err == nil {
		t.Fatal("an import of zero bytes was taken")
	}
	learner2, state2, err := c.Export("max2")
	if err != nil || learner2 != learner || !bytes.Equal(state2, state) {
		t.Fatalf("re-export = %q (%d bytes), %v; want %s and the %d bytes imported", learner2, len(state2), err, learner, len(state))
	}
	t.Logf("%d B of state", len(state))
}

func TestProtocolErrors(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Feedback("ghost", 0, true); err == nil || !strings.Contains(err.Error(), "unknown subscriber") {
		t.Errorf("feedback for unknown user: %v", err)
	}
	if _, err := c.Profile("ghost"); err == nil {
		t.Error("profile for unknown user accepted")
	}
	if err := c.Subscribe("", "", nil); err == nil {
		t.Error("empty user accepted")
	}
	// Keywords seed MM only: with another learner they are refused by
	// name, not dropped, and nothing is subscribed.
	if err := c.Subscribe("kw", "MMND", []string{"cats"}); err == nil || !strings.Contains(err.Error(), "keywords") {
		t.Errorf("keywords with learner MMND: %v, want an error naming keywords", err)
	}
	if _, err := c.Profile("kw"); err == nil {
		t.Error("refused keyword subscribe left a subscriber behind")
	}
	// Duplicate subscription.
	if err := c.Subscribe("dup", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe("dup", "", nil); err == nil {
		t.Error("duplicate user accepted")
	}
}

func TestUnsubscribeOverWire(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Subscribe("alice", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe("alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Publish(catPage); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stats()
	if st.Subscribers != 0 || st.Deliveries != 0 {
		t.Errorf("stats after unsubscribe = %+v", st)
	}
}

func TestFetchContent(t *testing.T) {
	c, _, _ := startServerOpts(t, pubsub.Options{Threshold: 0.2, RetainContent: true})

	doc, _, err := c.Publish(catPage)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got != catPage {
		t.Errorf("fetched %q", got)
	}
	if _, err := c.Fetch(999); err == nil {
		t.Error("fetch of unknown doc accepted")
	}
}

func TestExportImportPortability(t *testing.T) {
	// Train a profile on server A, export it, import it on server B, and
	// check B delivers to it immediately.
	cA, _ := startServer(t)
	if err := cA.Subscribe("alice", "", []string{"cats", "kittens"}); err != nil {
		t.Fatal(err)
	}
	doc, _, err := cA.Publish(catPage)
	if err != nil {
		t.Fatal(err)
	}
	if err := cA.Feedback("alice", doc, true); err != nil {
		t.Fatal(err)
	}
	learner, state, err := cA.Export("alice")
	if err != nil {
		t.Fatal(err)
	}
	if learner != "MM" || len(state) == 0 {
		t.Fatalf("export = %q, %d bytes", learner, len(state))
	}

	cB, _ := startServer(t)
	if err := cB.Import("alice", learner, state); err != nil {
		t.Fatal(err)
	}
	if _, delivered, err := cB.Publish(catPage); err != nil || delivered != 1 {
		t.Fatalf("imported profile did not match: delivered=%d err=%v", delivered, err)
	}
	p, err := cB.Profile("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Learner != "MM" || p.Size < 1 {
		t.Errorf("imported profile = %+v", p)
	}
}

func TestImportErrors(t *testing.T) {
	c, _ := startServer(t)
	if err := c.Import("", "MM", nil); err == nil {
		t.Error("import without user accepted")
	}
	if err := c.Import("x", "", nil); err == nil {
		t.Error("import without learner accepted")
	}
	if err := c.Import("x", "NoSuch", nil); err == nil {
		t.Error("import with unknown learner accepted")
	}
	if err := c.Import("x", "MM", []byte{9, 9, 9}); err == nil {
		t.Error("import with corrupt state accepted")
	}
}

// TestReplyWithoutItsFieldIsAnError: a server (a stub, or an older one)
// that answers stats and profile with a bare {"ok":true} gets an error
// naming the missing field from the client, not a nil dereference.
func TestReplyWithoutItsFieldIsAnError(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	go func() {
		lines := bufio.NewScanner(remote)
		for lines.Scan() {
			if _, err := remote.Write([]byte("{\"ok\":true}\n")); err != nil {
				return
			}
		}
	}()
	c := NewClient(local)
	defer c.Close()
	if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), `"stats"`) {
		t.Errorf("Stats: %v, want an error naming \"stats\"", err)
	}
	if _, err := c.Profile("alice"); err == nil || !strings.Contains(err.Error(), `"profile"`) {
		t.Errorf("Profile: %v, want an error naming \"profile\"", err)
	}
}

func TestUnknownOp(t *testing.T) {
	c, _ := startServer(t)
	// "poll" and "watch" were drains of the queue before the session became
	// the only one; an old client must get an error, not a hang.
	for _, op := range []Op{"dance", "poll", "watch"} {
		_, err := c.roundTrip(Request{Op: op, User: "alice"})
		if err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %q: %v", op, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c0, srv := startServer(t)
	if err := c0.Subscribe("watcher", "", []string{"cats"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				if _, _, err := c.Publish(fmt.Sprintf("<html><body>cat story %d from writer %d</body></html>", i, g)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := c0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Published != 160 {
		t.Errorf("published = %d, want 160", st.Published)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	c, srv := startServer(t)
	if err := c.Subscribe("alice", "", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Further requests must fail, not hang.
	if _, _, err := c.Publish("x"); err == nil {
		t.Error("publish after server close succeeded")
	}
}
