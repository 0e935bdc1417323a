package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/metrics"
	"mmprofile/internal/server"
	"mmprofile/internal/text"
	"mmprofile/internal/wire"
)

// sessionsConfig shapes one run.
type sessionsConfig struct {
	addr       string // "pipe" = in-process server over net.Pipe
	status     string // mmserver -http address, for the /topz cross-check
	sessions   int
	publishers int
	docs       int
	topics     int
	batch      int
	queue      int
}

// runSessions is the c10k-and-up delivery run: subscribers/topics sessions
// per topic, each holding one server-push connection; publishers emit
// topic-tagged documents. After the drain every session's sequence state is
// reconciled — any
// delivery neither received nor accounted for by the server's drop counter
// is unobserved loss and fails the run.
func runSessions(cfg sessionsConfig) {
	if cfg.topics < 1 {
		cfg.topics = 1
	}
	if cfg.topics > cfg.sessions {
		cfg.topics = cfg.sessions
	}

	dial, shutdown, localDrops := transport(cfg)
	defer shutdown()

	// Topic vocabulary: both the documents and the subscription keywords go
	// through the same text pipeline, so a topic's sessions match its
	// documents with cosine 1 regardless of stemming. Candidate tokens whose
	// stem collides with an earlier topic's are skipped — otherwise two
	// topics would silently merge and inflate the fan-out.
	pipe := text.NewPipeline()
	topicDocs := make([]string, 0, cfg.topics)
	topicKeywords := make([][]string, 0, cfg.topics)
	seen := make(map[string]bool, cfg.topics)
	for i := 0; len(topicDocs) < cfg.topics; i++ {
		tok := topicToken(i)
		doc := fmt.Sprintf("%s %s %s %s", tok, tok, tok, tok)
		terms := pipe.Terms(doc)
		if len(terms) == 0 || seen[terms[0]] {
			continue
		}
		seen[terms[0]] = true
		topicDocs = append(topicDocs, doc)
		topicKeywords = append(topicKeywords, terms)
	}

	// Open every session up front: dial, subscribe, switch to push mode,
	// and start its consumer. A worker pool keeps socket transports from
	// serializing 100k dials.
	fmt.Printf("opening %d sessions over %d topics (transport %s)...\n",
		cfg.sessions, cfg.topics, cfg.addr)
	states := make([]*wire.Session, cfg.sessions)
	start := time.Now()
	var totalReceived atomic.Int64
	var consumerWG sync.WaitGroup
	openErr := parallelFor(cfg.sessions, 64, func(i int) error {
		c, err := dial()
		if err != nil {
			return err
		}
		user := fmt.Sprintf("sess-%06d", i)
		if err := c.Subscribe(user, "", topicKeywords[i%cfg.topics]); err != nil {
			c.Close()
			return err
		}
		sess, err := c.Session(user, cfg.batch)
		if err != nil {
			c.Close()
			return err
		}
		states[i] = sess
		consumerWG.Add(1)
		go func() {
			defer consumerWG.Done()
			for {
				frame, err := sess.Recv()
				if err != nil {
					return
				}
				totalReceived.Add(int64(len(frame.Deliveries)))
				if frame.Closed {
					return
				}
			}
		}()
		return nil
	})
	if openErr != nil {
		fail(fmt.Errorf("opening sessions: %w", openErr))
	}
	opened := time.Since(start)
	fmt.Printf("sessions open: %d in %v (%.0f/s)\n",
		cfg.sessions, opened.Round(time.Millisecond), float64(cfg.sessions)/opened.Seconds())

	// Publish the topic-tagged documents.
	var pubWG sync.WaitGroup
	pubStart := time.Now()
	var nextDoc atomic.Int64
	for p := 0; p < cfg.publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			c, err := dial()
			if err != nil {
				fmt.Fprintln(os.Stderr, "mmload: publisher dial:", err)
				return
			}
			defer c.Close()
			for {
				n := int(nextDoc.Add(1)) - 1
				if n >= cfg.docs {
					return
				}
				if _, _, err := c.Publish(topicDocs[n%cfg.topics]); err != nil {
					fmt.Fprintln(os.Stderr, "mmload: publish:", err)
					return
				}
			}
		}()
	}
	pubWG.Wait()
	pubElapsed := time.Since(pubStart)
	fmt.Printf("published %d docs in %v (%.0f docs/s)\n",
		cfg.docs, pubElapsed.Round(time.Millisecond), float64(cfg.docs)/pubElapsed.Seconds())

	// Quiesce: the run is drained when the global receive count holds still
	// for 2s (bounded at 60s so a wedged session can't hang the run).
	last, stableMS := int64(-1), 0
	for waited := 0; waited < 60_000 && stableMS < 2_000; waited += 200 {
		time.Sleep(200 * time.Millisecond)
		if cur := totalReceived.Load(); cur == last {
			stableMS += 200
		} else {
			last, stableMS = cur, 0
		}
	}

	// Tear down: closing each connection ends its server session and unblocks
	// its consumer's Recv.
	for _, sess := range states {
		sess.Close()
	}
	consumerWG.Wait()

	// Reconcile every session's sequence state. received + dropped must
	// equal next_seq exactly: the drop-oldest policy may discard deliveries
	// under backpressure, but each discard must be visible in the drop
	// counter (and as a gap in the received sequence numbers).
	var received, dropped, gaps, lossSessions, unobserved int64
	for _, sess := range states {
		r, d, n, g := sess.Received(), sess.Dropped(), sess.NextSeq(), sess.Gaps()
		received += int64(r)
		dropped += int64(d)
		gaps += int64(g)
		if r+d != n {
			lossSessions++
			unobserved += int64(n) - int64(r) - int64(d)
		}
	}
	fmt.Printf("deliveries: %d received, %d dropped (server-reported), %d observed as sequence gaps\n",
		received, dropped, gaps)

	// Hot-key cross-check: the sessions that observed the most gaps should
	// be the keys the server's subscriber_drops sketch ranks hottest, and
	// every session's authoritative drop count must sit inside its sketch
	// entry's [count−err, count] band (or below the sketch's error bound
	// when untracked). Pipe mode reads the in-process server's sketch
	// directly; socket mode reads /topz via -status.
	dropsFailed := reportDrops(cfg, states, localDrops)

	if lossSessions > 0 {
		fail(fmt.Errorf("UNOBSERVED LOSS: %d session(s) with received+dropped != next_seq (%d deliveries unaccounted for)",
			lossSessions, unobserved))
	}
	if dropsFailed {
		fail(fmt.Errorf("ATTRIBUTION MISMATCH: server subscriber_drops sketch disagrees with session drop counts"))
	}
	fmt.Printf("no unobserved loss: received + dropped == next_seq across all %d sessions\n", cfg.sessions)
}

// reportDrops prints the top-5 sessions by client-observed gaps and
// cross-checks each session's server-reported drop count against the
// server's subscriber_drops sketch. The space-saving invariant makes the
// check exact per tracked key — count−err ≤ true ≤ count — and bounds
// untracked keys by the sketch's epsilon. Returns true when any session
// falls outside its band (which, against a freshly started server, means
// attribution lost or invented drops).
func reportDrops(cfg sessionsConfig, states []*wire.Session, localDrops func() (metrics.TopSnapshot, bool)) bool {
	type row struct {
		user string
		gaps uint64
		drop uint64
	}
	rows := make([]row, 0, len(states))
	for i, sess := range states {
		rows = append(rows, row{
			user: fmt.Sprintf("sess-%06d", i),
			gaps: sess.Gaps(),
			drop: sess.Dropped(),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].gaps != rows[j].gaps {
			return rows[i].gaps > rows[j].gaps
		}
		return rows[i].user < rows[j].user
	})

	var snap metrics.TopSnapshot
	switch {
	case localDrops != nil:
		var ok bool
		if snap, ok = localDrops(); !ok {
			fmt.Println("subscriber_drops sketch not available in-process; skipping cross-check")
			return false
		}
	case cfg.status != "":
		var err error
		if snap, err = fetchDrops(cfg.status); err != nil {
			fmt.Fprintln(os.Stderr, "mmload: /topz cross-check skipped:", err)
			return false
		}
	default:
		return false // socket run without -status: nothing to check against
	}

	byKey := make(map[string]metrics.TopEntry, len(snap.Entries))
	for _, e := range snap.Entries {
		byKey[e.Key] = e
	}

	if rows[0].gaps > 0 {
		fmt.Println("top droppers (client-observed gaps vs server sketch):")
		for _, r := range rows[:min(5, len(rows))] {
			if r.gaps == 0 {
				break
			}
			if e, ok := byKey[r.user]; ok {
				fmt.Printf("  %-12s %6d gap(s)  sketch %.0f ±%.0f\n", r.user, r.gaps, e.Count, e.Err)
			} else {
				fmt.Printf("  %-12s %6d gap(s)  sketch untracked (ε %.0f)\n", r.user, r.gaps, snap.Epsilon)
			}
		}
	}

	bad := 0
	for _, r := range rows {
		d := float64(r.drop)
		if e, ok := byKey[r.user]; ok {
			if e.Count < d || e.Count-e.Err > d {
				bad++
				if bad <= 5 {
					fmt.Fprintf(os.Stderr, "mmload: %s dropped %d but sketch says %.0f ±%.0f\n",
						r.user, r.drop, e.Count, e.Err)
				}
			}
		} else if d > snap.Epsilon {
			bad++
			if bad <= 5 {
				fmt.Fprintf(os.Stderr, "mmload: %s dropped %d yet is untracked (sketch ε %.0f)\n",
					r.user, r.drop, snap.Epsilon)
			}
		}
	}
	if bad == 0 {
		fmt.Printf("drop attribution agrees with the server sketch across all %d sessions (%d tracked, ε %.0f)\n",
			len(states), snap.Tracked, snap.Epsilon)
	}
	return bad > 0
}

// fetchDrops reads the subscriber_drops dimension from a status listener's
// /topz, asking for every tracked entry.
func fetchDrops(addr string) (metrics.TopSnapshot, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + "/topz?dim=subscriber_drops&k=1048576")
	if err != nil {
		return metrics.TopSnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.TopSnapshot{}, fmt.Errorf("GET /topz: %s", resp.Status)
	}
	var out struct {
		Dimensions []metrics.TopSnapshot `json:"dimensions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return metrics.TopSnapshot{}, err
	}
	if len(out.Dimensions) == 0 {
		return metrics.TopSnapshot{}, fmt.Errorf("server reports no subscriber_drops dimension")
	}
	return out.Dimensions[0], nil
}

// transport builds the dial function for the configured address: "pipe"
// builds mmserver's server (internal/server) in-process and hands it net.Pipe
// connections (no fds, no ports — how 100k+ sessions fit under a 20k fd
// limit); anything else dials a real server. In pipe mode, drops reads that
// server's subscriber_drops sketch for the attribution cross-check; over
// sockets it is nil and the cross-check goes through -status instead.
func transport(cfg sessionsConfig) (dial func() (*wire.Client, error), shutdown func(), drops func() (metrics.TopSnapshot, bool)) {
	if cfg.addr != "pipe" {
		return func() (*wire.Client, error) { return wire.Dial(cfg.addr) }, func() {}, nil
	}
	srv, err := server.New(server.Config{Queue: cfg.queue}, server.Seams{Log: io.Discard})
	if err != nil {
		fail(err)
	}
	dial = func() (*wire.Client, error) {
		local, remote := net.Pipe()
		srv.ServeConn(remote)
		return wire.NewClient(local), nil
	}
	drops = func() (metrics.TopSnapshot, bool) {
		return srv.Registry().Top("subscriber_drops", 0)
	}
	return dial, srv.Stop, drops
}

// parallelFor runs fn(0..n-1) on up to workers goroutines and returns the
// first error (the remaining items still run; session slots must be filled
// or nil-checked either way, and a failed open fails the whole run).
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// topicToken derives a deterministic, letters-only token for topic i, so
// neither the tokenizer nor the stop list can split or drop it.
func topicToken(i int) string {
	b := []byte("topic")
	for {
		b = append(b, byte('a'+i%26))
		i /= 26
		if i == 0 {
			return string(b)
		}
	}
}
