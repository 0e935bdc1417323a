package main

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/index"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
	"mmprofile/internal/wire"
)

// The traced run is a rung ladder. The top rung is the out-of-process run
// itself, with client-side spans around every request. Every lower rung
// replays the same acknowledged requests, in the same order, in-process,
// through one layer's public functions, rebuilding the population through
// that layer's own API:
//
//	wire       mmserver over the unix socket (client spans)        run.go
//	wire.pipe  wire.Server + broker over net.Pipe, one connection
//	pubsub     pubsub.Broker called directly
//	index      index.Index: Match per publish, SetUser per feedback
//	text       Pipeline.Terms + Stats.Add + DocumentVector
//	core       Profile.Observe
//	store      Store.AppendFeedback (durable), Load, Checkpoint, RestoreUser
//
// A request's spans nest by rung, and a layer's self time is its span minus
// what the spans below it cover. What the top rung has beyond wire.pipe — the
// kernel's socket path, queueing behind the other connection, two processes
// sharing a host — is measured by no in-process call and is reported as
// trace.unattributed_share.

// ladderOps is how many requests from inside the measured window the
// in-process rungs time. Everything the server was sent before them — its
// first requests, the warm-up — is replayed too, so that document ids,
// collection statistics, profiles and residency line up, but is not timed
// into metrics.
const ladderOps = 2500

// ladderLog cuts the run's request log after the ladderOps-th request that
// was acknowledged inside the window, and says how many such requests the
// cut holds.
func ladderLog(out *outcome) (log []opRec, timed int) {
	for i := range out.log {
		if inWindow(out, &out.log[i]) {
			if timed++; timed == ladderOps {
				return out.log[:i+1], timed
			}
		}
	}
	return out.log, timed
}

// span is one timed call into a layer, in the shape the trace file keeps.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns
	End     int64  `json:"end"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"` // index of the parent span in the file, -1 for a root
	Self    int64  `json:"self"`   // filled in when the file is written
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice,
// and a child is clipped to its parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// lru mirrors a least-recently-used residency cap, so the index rung can
// keep the same share of profiles indexed as the server does and the pubsub
// rung can tell which judgments had to hydrate a cold profile first.
type lru struct {
	cap   int
	order *list.List // front: most recent
	at    map[int]*list.Element
}

func newLRU(cap int) *lru { return &lru{cap: cap, order: list.New(), at: map[int]*list.Element{}} }

// touch marks user as used now. It reports whether the user was cold, and
// which user the cap pushed out (-1: none).
func (l *lru) touch(user int) (cold bool, evicted int) {
	evicted = -1
	if el, ok := l.at[user]; ok {
		l.order.MoveToFront(el)
		return false, evicted
	}
	l.at[user] = l.order.PushFront(user)
	if l.order.Len() > l.cap {
		tail := l.order.Back()
		evicted = tail.Value.(int)
		l.order.Remove(tail)
		delete(l.at, evicted)
	}
	return true, evicted
}

// rungTimes holds, per replayed request (index into the replay log), the
// nanoseconds each rung's call took; -1 where a rung has no call for it.
type rungTimes struct {
	pipe, pipeAll     []int64 // wire.pipe: call→ack, call→last expected frame
	pubsub            []int64
	text, match       []int64
	observe, reindex  []int64
	appendNS          []int64
	cold              []bool // pubsub rung: the judged profile was evicted
	matches           []int32
	scanned, skipped  []uint64
	docTerms          []int32
	matchSecondHalfNS []int64
}

func newRungTimes(n int) *rungTimes {
	mk := func() []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = -1
		}
		return s
	}
	return &rungTimes{
		pipe: mk(), pipeAll: mk(), pubsub: mk(), text: mk(), match: mk(),
		observe: mk(), reindex: mk(), appendNS: mk(),
		cold: make([]bool, n), matches: make([]int32, n),
		scanned: make([]uint64, n), skipped: make([]uint64, n), docTerms: make([]int32, n),
	}
}

// newBroker builds an in-process broker the way mmserver's defaults do and
// loads the population through Subscribe. With state it journals durably
// into dir and, on the restart workload, runs under the resident cap and
// checkpoints once, as the server's boot does.
func newBroker(in *inputs, states [][]byte, dir string) (*pubsub.Broker, *store.Store, error) {
	sp := in.spec
	var opts pubsub.Options
	var st *store.Store
	if sp.State {
		var err error
		if st, err = store.Open(dir, store.Options{Durable: true}); err != nil {
			return nil, nil, err
		}
		opts.Journal, opts.Hydrator, opts.MaxResident = st, st, sp.resident()
	}
	b := pubsub.New(opts)
	err := eachUser(in, func(i int) error {
		l := core.NewDefault()
		if err := l.UnmarshalBinary(states[i]); err != nil {
			return err
		}
		_, err := b.Subscribe(in.users[i].name, l)
		return err
	})
	if err == nil && sp.Restart {
		_, err = st.Checkpoint(1)
	}
	if err != nil {
		if st != nil {
			_ = st.Close()
		}
		return nil, nil, err
	}
	return b, st, nil
}

// eachUser calls fn for every user index. Under a resident cap it goes in
// order, because which profiles end up resident depends on the order; else
// over a few goroutines, so that durable subscribes share their fsyncs.
func eachUser(in *inputs, fn func(i int) error) error {
	workers := loaders
	if in.spec.resident() > 0 {
		workers = 1
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < len(in.users); i += workers {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pipeBackend is an in-process wire.Server over net.Pipe.
type pipeBackend struct {
	srv *wire.Server
	st  *store.Store
}

func (p *pipeBackend) dial(counter *byteCounter) (*wire.Client, error) {
	local, remote := net.Pipe()
	p.srv.ServeConn(remote)
	if counter != nil {
		return wire.NewClient(&countingConn{Conn: local, c: counter}), nil
	}
	return wire.NewClient(local), nil
}

func (p *pipeBackend) pid() int { return 0 }

func (p *pipeBackend) stop(bool) error {
	err := p.srv.Close()
	if p.st != nil {
		if cerr := p.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// pipeFactory starts in-process servers with mmserver's defaults; the
// population is loaded over the wire like on the real thing.
type pipeFactory struct{}

func (pipeFactory) start(stateDir string, fsync bool, maxResident int) (backend, error) {
	return startPipe(stateDir, fsync, maxResident)
}

func startPipe(stateDir string, fsync bool, maxResident int) (*pipeBackend, error) {
	var opts pubsub.Options
	var st *store.Store
	if stateDir != "" {
		var err error
		if st, err = store.Open(stateDir, store.Options{Durable: fsync}); err != nil {
			return nil, err
		}
		opts.Journal, opts.Hydrator, opts.MaxResident = st, st, maxResident
	}
	srv := wire.NewServer(pubsub.New(opts), func(string, ...any) {})
	return &pipeBackend{srv: srv, st: st}, nil
}

func (pipeFactory) canRestart() bool { return false }

// replayTarget is what the broker rungs replay a request against: the wire
// client of the pipe rung, or the broker itself.
type replayTarget interface {
	publish(html string) (doc int64, delivered int, err error)
	feedback(user string, doc int64, fd filter.Feedback) error
}

type brokerTarget struct{ b *pubsub.Broker }

func (t brokerTarget) publish(html string) (int64, int, error) {
	doc, n := t.b.Publish(html)
	return doc, n, nil
}
func (t brokerTarget) feedback(user string, doc int64, fd filter.Feedback) error {
	return t.b.Feedback(user, doc, fd)
}

type clientTarget struct{ c *wire.Client }

func (t clientTarget) publish(html string) (int64, int, error) { return t.c.Publish(html) }
func (t clientTarget) feedback(user string, doc int64, fd filter.Feedback) error {
	return t.c.Feedback(user, doc, fd == filter.Relevant)
}

// brokerReplay steps a log through a broker-shaped target, timing every
// request into dur. A rung's broker assigns its own document ids, so judged
// documents are translated through the publish ordinal. afterPublish, when
// set, runs after each acknowledged publish and returns when the expected
// frames are in.
type brokerReplay struct {
	in           *inputs
	target       replayTarget
	dur          []int64
	afterPublish func(i int, rec *opRec, t0 time.Time)

	ordinalOf map[int64]int // wire-rung document id → publish ordinal
	ids       []int64       // publish ordinal → this rung's document id
}

func (b *brokerReplay) step(i int, rec *opRec) error {
	switch rec.kind {
	case opPublish:
		t0 := time.Now()
		doc, _, err := b.target.publish(b.in.pages[rec.page].html)
		b.dur[i] = int64(time.Since(t0))
		if err != nil {
			return err
		}
		if b.ordinalOf == nil {
			b.ordinalOf = map[int64]int{}
		}
		b.ordinalOf[rec.doc] = len(b.ids)
		b.ids = append(b.ids, doc)
		if b.afterPublish != nil {
			b.afterPublish(i, rec, t0)
		}
	case opFeedback:
		ord, ok := b.ordinalOf[rec.doc]
		if !ok {
			return fmt.Errorf("perf: replay judges document %d before its publish", rec.doc)
		}
		fd := filter.NotRelevant
		if rec.relevant {
			fd = filter.Relevant
		}
		t0 := time.Now()
		err := b.target.feedback(b.in.users[rec.user].name, b.ids[ord], fd)
		b.dur[i] = int64(time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// ladder runs the in-process rungs for a finished traced run and returns
// the per-layer metrics.
func (e *env) ladder(r *runner, out *outcome, deliveries []float64) (map[string]metric, error) {
	in, sp := r.in, r.in.spec
	log, timed := ladderLog(out)
	if timed == 0 {
		return nil, fmt.Errorf("perf: no request was acknowledged inside the window, the ladder has nothing to time")
	}
	inWindow := func(i int) bool { return inWindow(out, &log[i]) }
	rt := newRungTimes(len(log))

	// Session deliveries each publish caused on the top rung: what the pipe
	// rung waits for before it calls a publish fully delivered.
	perDoc := map[int64]int{}
	for _, st := range out.sessions {
		for _, rv := range st.recv {
			perDoc[rv.doc]++
		}
	}

	// The rungs are built side by side and every request goes through all of
	// them before the next one does: on a host whose speed drifts within
	// seconds, rungs replayed one after the other would each be timed at
	// another speed and their differences — the self times — would be noise.
	pipe, err := startPipeRung(in, r.startStates, perDoc, rt)
	if err != nil {
		return nil, fmt.Errorf("wire.pipe rung: %w", err)
	}
	defer pipe.close()
	broker, err := startPubsubRung(in, r.startStates, log, rt)
	if err != nil {
		return nil, fmt.Errorf("pubsub rung: %w", err)
	}
	defer broker.close()
	// Rungs index, text, core and store ride one replay of the reference.
	layer, err := startLayerRungs(in, r.startStates, log, out.stateDir, rt)
	if err != nil {
		return nil, fmt.Errorf("layer rungs: %w", err)
	}
	defer layer.close()
	runtime.GC()
	for i := range log {
		rec := &log[i]
		if !rec.ok {
			continue
		}
		if err := pipe.replay.step(i, rec); err != nil {
			return nil, fmt.Errorf("wire.pipe rung: %w", err)
		}
		if err := broker.replay.step(i, rec); err != nil {
			return nil, fmt.Errorf("pubsub rung: %w", err)
		}
		if err := layer.mdl.step(i, rec, nil, nil, &layer.hooks); err != nil {
			return nil, fmt.Errorf("layer rungs: %w", err)
		}
	}
	allocsPerPublish, allocsPerDelivery := broker.allocs()
	sm, err := layer.finish()
	if err != nil {
		return nil, fmt.Errorf("layer rungs: %w", err)
	}

	// Spans: one tree per windowed request, children laid end to end from
	// their parent's start, in call order.
	var spans []span
	add := func(name string, req, parent int, start, dur int64) int {
		spans = append(spans, span{Name: name, Start: start, End: start + dur, Request: req, Parent: parent})
		return len(spans) - 1
	}
	for i := range log {
		if !inWindow(i) {
			continue
		}
		rec := &log[i]
		wireDur := rec.tAck - rec.tCall
		switch rec.kind {
		case opPublish:
			root := add("wire.publish", i, -1, rec.tCall, wireDur)
			pipe := add("wire.pipe.publish", i, root, rec.tCall, rt.pipe[i])
			ps := add("pubsub.publish", i, pipe, rec.tCall, rt.pubsub[i])
			add("text.vectorise", i, ps, rec.tCall, rt.text[i])
			add("index.match", i, ps, rec.tCall+rt.text[i], rt.match[i])
			if rt.pipeAll[i] > rt.pipe[i] {
				add("wire.pipe.session", i, -1, rec.tCall+rt.pipe[i], rt.pipeAll[i]-rt.pipe[i])
			}
		case opFeedback:
			root := add("wire.feedback", i, -1, rec.tCall, wireDur)
			pipe := add("wire.pipe.feedback", i, root, rec.tCall, rt.pipe[i])
			ps := add("pubsub.feedback", i, pipe, rec.tCall, rt.pubsub[i])
			at := rec.tCall
			if rt.appendNS[i] >= 0 {
				add("store.append", i, ps, at, rt.appendNS[i])
				at += rt.appendNS[i]
			}
			add("core.observe", i, ps, at, rt.observe[i])
			add("index.reindex", i, ps, at+rt.observe[i], rt.reindex[i])
		}
	}
	// A layer's self time is its rung's time minus the rungs below it. The
	// rungs are separate replays, so the subtraction is done on the sums
	// over all windowed requests: request by request, the noise of two
	// replays would be clipped at zero and bias every self time upward.
	// (Each span in the trace file still carries its own clipped self.)
	below := map[string][]string{
		"wire.publish":       {"wire.pipe.publish"},
		"wire.feedback":      {"wire.pipe.feedback"},
		"wire.pipe.publish":  {"pubsub.publish"},
		"wire.pipe.feedback": {"pubsub.feedback"},
		"pubsub.publish":     {"text.vectorise", "index.match"},
		"pubsub.feedback":    {"store.append", "core.observe", "index.reindex"},
	}
	sumSelf, count := map[string]float64{}, map[string]float64{}
	sumDur := map[string]float64{}
	for _, s := range spans {
		sumDur[s.Name] += float64(s.End - s.Start)
		count[s.Name]++
	}
	for name, kids := range below {
		sumSelf[name] = sumDur[name]
		for _, k := range kids {
			sumSelf[name] -= sumDur[k]
		}
	}
	meanUS := func(sum map[string]float64, name string) float64 { return div(sum[name], count[name]) / 1e3 }
	if err := writeSpans(filepath.Join(e.outDir, sp.Name+".spans.jsonl"), spans); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	us := func(name string, v float64) { m[name] = metric{v, "us"} }
	num := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// text
	us("text.vectorise_us", meanUS(sumDur, "text.vectorise"))
	var terms, matches, scanned, skipped, pubs, churned float64
	for i := range log {
		if inWindow(i) && log[i].kind == opPublish {
			pubs++
			terms += float64(rt.docTerms[i])
			matches += float64(rt.matches[i])
			scanned += float64(rt.scanned[i])
			skipped += float64(rt.skipped[i])
		}
	}
	for _, ns := range rt.matchSecondHalfNS {
		churned += float64(ns)
	}
	per := func(v float64) float64 { return div(v, pubs) }
	num("text.terms_per_doc", "count", per(terms))
	// index
	us("index.match_us", meanUS(sumDur, "index.match"))
	num("index.matches_per_doc", "count", per(matches))
	num("index.postings_scanned_per_doc", "count", per(scanned))
	num("index.blocks_skipped_per_doc", "count", per(skipped))
	us("index.reindex_us", meanUS(sumDur, "index.reindex"))
	us("index.match_after_churn_us", div(churned, float64(len(rt.matchSecondHalfNS)))/1e3)
	// core
	us("core.observe_us", meanUS(sumDur, "core.observe"))
	num("core.vectors_per_profile", "count", sm.vectorsPerProfile)
	// store
	us("store.append_us", meanUS(sumDur, "store.append"))
	num("store.bytes_per_append", "B", sm.bytesPerAppend)
	num("store.load_s", "s", sm.loadSecs)
	num("store.checkpoint_s", "s", sm.checkpointSecs)
	num("store.state_bytes_per_user", "B", sm.stateBytesPerUser)
	us("store.restore_user_us", sm.restoreUserUS)
	num("store.prepare_s", "s", r.prepareSecs)
	// pubsub
	us("pubsub.publish_us", meanUS(sumDur, "pubsub.publish"))
	us("pubsub.publish_self_us", meanUS(sumSelf, "pubsub.publish"))
	us("pubsub.deliver_us_per_recipient", div(meanUS(sumSelf, "pubsub.publish"), per(matches)))
	num("pubsub.allocs_per_publish", "count", allocsPerPublish)
	num("pubsub.allocs_per_delivery", "count", allocsPerDelivery)
	us("pubsub.feedback_us", meanUS(sumDur, "pubsub.feedback"))
	us("pubsub.feedback_self_us", meanUS(sumSelf, "pubsub.feedback"))
	var cold, warm []float64
	for i := range log {
		// Probes carry far larger profiles than the users they sit among;
		// they are left out so that cold and warm differ only in the cap.
		if inWindow(i) && log[i].kind == opFeedback && rt.pubsub[i] >= 0 && !in.users[log[i].user].probe {
			if rt.cold[i] {
				cold = append(cold, float64(rt.pubsub[i])/1e3)
			} else {
				warm = append(warm, float64(rt.pubsub[i])/1e3)
			}
		}
	}
	if len(cold) > 0 && len(warm) > 0 {
		us("pubsub.hydrate_us", mean(cold)-mean(warm))
	} else {
		us("pubsub.hydrate_us", 0)
	}
	// wire
	us("wire.publish_self_us", meanUS(sumSelf, "wire.pipe.publish"))
	us("wire.feedback_self_us", meanUS(sumSelf, "wire.pipe.feedback"))
	us("wire.session_self_us", div(sumDur["wire.pipe.session"], count["wire.publish"])/1e3)
	transport := sumSelf["wire.publish"] + sumSelf["wire.feedback"]
	us("wire.transport_self_us", div(transport, count["wire.publish"]+count["wire.feedback"])/1e3)
	var frames, recvd, bytes float64
	for _, st := range out.sessions {
		frames += float64(st.frames)
		recvd += float64(st.counted)
		bytes += float64(st.bytes)
	}
	num("wire.bytes_per_delivery", "B", div(bytes, recvd))
	num("wire.deliveries_per_frame", "count", div(recvd, frames))
	num("wire.rss_kb_per_session", "KB", float64(r.rssAfterSessK-r.rssBeforeSessK)/float64(max(1, len(out.sessions))))
	lat := windowOps(out, primaryOp(sp))
	opPct := pickPercentile(len(lat))
	num("wire.op_tail_ms", "ms", percentile(lat, opPct))
	num("wire.op_tail_pct", "%", opPct)
	num("wire.op_samples", "count", float64(len(lat)))
	dPct := pickPercentile(len(deliveries))
	num("wire.deliver_tail_ms", "ms", percentile(deliveries, dPct))
	num("wire.deliver_tail_pct", "%", dPct)
	num("wire.deliver_samples", "count", float64(len(deliveries)))

	// The harness's own view.
	num("trace.unattributed_share", "share", div(transport, sumDur["wire.publish"]+sumDur["wire.feedback"]))
	num("trace.overhead_share", "share", overheadShare(out))
	// Shares of the in-process service time of a publish, deliveries
	// included: the denominators of the per-workload dominance claims.
	service := sumDur["wire.pipe.publish"] + sumDur["wire.pipe.session"]
	share := func(v float64) float64 { return div(v, service) }
	num("trace.text_index_share", "share", share(sumDur["text.vectorise"]+sumDur["index.match"]))
	num("trace.index_share", "share", share(sumDur["index.match"]))
	num("trace.fanout_session_share", "share", share(sumSelf["pubsub.publish"]+sumSelf["wire.pipe.publish"]+sumDur["wire.pipe.session"]))
	for name, mt := range hostShares(out) {
		m[name] = mt
	}
	return m, nil
}

// overheadShare compares the request rate of the window's slices in which
// the session connections count their bytes with those in which they do not:
// medians over each group.
func overheadShare(out *outcome) float64 {
	var off, on []float64
	rates, _ := sliceRates(out.samples)
	for i, rate := range rates {
		if out.samples[i].counting {
			on = append(on, rate)
		} else {
			off = append(off, rate)
		}
	}
	if len(on) == 0 || median(off) == 0 {
		return 0
	}
	return 1 - median(on)/median(off)
}

// pipeRung steps the log over an in-process wire.Server: the whole protocol
// path — both JSON codecs, the session pumps, the readers — with one
// connection and no kernel socket.
type pipeRung struct {
	be       *pipeBackend
	dir      string
	sessions []*wire.Session
	client   *wire.Client
	received atomic.Int64
	expected int64
	replay   brokerReplay
}

func startPipeRung(in *inputs, states [][]byte, perDoc map[int64]int, rt *rungTimes) (p *pipeRung, err error) {
	sp := in.spec
	p = &pipeRung{}
	if sp.State {
		p.dir = "rung-pipe-state"
	}
	if p.be, err = startPipe(p.dir, true, sp.resident()); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	// The population goes in over the wire, as on the top rung; on restart
	// one checkpoint stands in for the boot's.
	conns := make([]*wire.Client, loaders)
	for w := range conns {
		if conns[w], err = p.be.dial(nil); err != nil {
			return nil, err
		}
		defer conns[w].Close()
	}
	err = eachUser(in, func(i int) error {
		return conns[i%loaders].Import(in.users[i].name, "MM", states[i])
	})
	if err != nil {
		return nil, err
	}
	if sp.Restart {
		if _, err = p.be.st.Checkpoint(1); err != nil {
			return nil, err
		}
	}
	for _, ui := range in.probes {
		c, err := p.be.dial(nil)
		if err != nil {
			return nil, err
		}
		sess, err := c.Session(in.users[ui].name, 0)
		if err != nil {
			return nil, err
		}
		p.sessions = append(p.sessions, sess)
		go func() {
			for {
				frame, err := sess.Recv()
				if err != nil {
					return
				}
				p.received.Add(int64(len(frame.Deliveries)))
			}
		}()
	}
	if p.client, err = p.be.dial(nil); err != nil {
		return nil, err
	}
	p.replay = brokerReplay{in: in, target: clientTarget{p.client}, dur: rt.pipe, afterPublish: func(i int, rec *opRec, t0 time.Time) {
		p.expected += int64(perDoc[rec.doc])
		// A borderline match can fall the other way on this broker; never
		// wait for it longer than a few request times.
		deadline := t0.Add(5 * time.Millisecond)
		for p.received.Load() < p.expected && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		p.expected = p.received.Load()
		rt.pipeAll[i] = int64(time.Since(t0))
	}}
	return p, nil
}

func (p *pipeRung) close() {
	for _, s := range p.sessions {
		s.Close()
	}
	if p.client != nil {
		p.client.Close()
	}
	_ = p.be.stop(true)
	if p.dir != "" {
		_ = os.RemoveAll(p.dir)
	}
}

// pubsubRung steps the log straight into a broker.
type pubsubRung struct {
	in     *inputs
	b      *pubsub.Broker
	st     *store.Store
	dir    string
	replay brokerReplay
}

func startPubsubRung(in *inputs, states [][]byte, log []opRec, rt *rungTimes) (*pubsubRung, error) {
	p := &pubsubRung{in: in}
	if in.spec.State {
		p.dir = "rung-pubsub-state"
	}
	var err error
	if p.b, p.st, err = newBroker(in, states, p.dir); err != nil {
		p.close()
		return nil, err
	}
	if cap := in.spec.resident(); cap > 0 {
		// Which judgments find their profile evicted follows from the cap
		// and the order of use alone.
		res := newLRU(cap)
		for ui := range in.users {
			res.touch(ui)
		}
		for i := range log {
			if log[i].ok && log[i].kind == opFeedback {
				rt.cold[i], _ = res.touch(int(log[i].user))
			}
		}
	}
	p.replay = brokerReplay{in: in, target: brokerTarget{p.b}, dur: rt.pubsub}
	return p, nil
}

// allocs measures the allocations of a further batch of publishes.
func (p *pubsubRung) allocs() (perPublish, perDelivery float64) {
	const batch = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	delivered := 0
	stream := p.in.streams[0]
	for k := 0; k < batch; k++ {
		_, n := p.b.Publish(p.in.pages[stream[k%len(stream)].page].html)
		delivered += n
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs - before.Mallocs)
	return allocs / batch, div(allocs, float64(delivered))
}

func (p *pubsubRung) close() {
	if p.st != nil {
		_ = p.st.Close()
	}
	if p.dir != "" {
		_ = os.RemoveAll(p.dir)
	}
}

// timedVectorise is the text layer's public path timed from outside:
// pipeline, statistics update, weighting. It returns the vector and the
// nanoseconds it took.
func timedVectorise(pipe *text.Pipeline, html string, stats *vsm.Stats) (vsm.Vector, int64) {
	t := time.Now()
	terms := pipe.Terms(html)
	stats.Add(terms)
	vec := vsm.DocumentVector(terms, vsm.Bel{Stats: stats})
	return vec, int64(time.Since(t))
}

// storeMeasures are the store rung's one-off measurements.
type storeMeasures struct {
	loadSecs, checkpointSecs          float64
	stateBytesPerUser, restoreUserUS  float64
	bytesPerAppend, vectorsPerProfile float64
}

// layerRungs steps the log through a fresh reference with every layer call
// timed: text per publish, index.Match per publish, core.Observe,
// index.SetUser and store.AppendFeedback per judgment. The store rung works
// on a copy of the state directory the measured server left behind.
type layerRungs struct {
	in    *inputs
	mdl   *model
	hooks hooks

	st                    *store.Store
	storeDir              string
	sm                    storeMeasures
	appended, bytesBefore int64
}

func startLayerRungs(in *inputs, states [][]byte, log []opRec, stateDir string, rt *rungTimes) (*layerRungs, error) {
	sp := in.spec
	l := &layerRungs{in: in, mdl: newModelFrom(in, states)}
	pipe := text.NewPipeline()

	// index: the population goes in through SetUser; under a resident cap
	// only the profiles the cap keeps are indexed.
	ix := index.New()
	var res *lru
	if cap := sp.resident(); cap > 0 {
		res = newLRU(cap)
	}
	for ui, p := range l.mdl.profiles {
		if res != nil {
			continue // the restart server boots with every profile evicted
		}
		ix.SetUser(in.users[ui].name, p.ProfileVectors())
	}

	// store: a copy of what the server journaled.
	if sp.State && stateDir != "" {
		l.storeDir = "rung-store-state"
		if err := copyDir(stateDir, l.storeDir); err != nil {
			l.close()
			return nil, err
		}
		var err error
		if l.st, err = store.Open(l.storeDir, store.Options{Durable: true}); err != nil {
			l.close()
			return nil, err
		}
		t := time.Now()
		if _, _, err := l.st.Load(); err != nil {
			l.close()
			return nil, err
		}
		l.sm.loadSecs = time.Since(t).Seconds()
		l.bytesBefore = dirBytes(l.storeDir)
	}

	half := 0
	for i := range log {
		if log[i].kind == opPublish {
			half++
		}
	}
	half /= 2
	seenPubs := 0
	l.hooks = hooks{
		vectorise: func(i int, html string, stats *vsm.Stats) vsm.Vector {
			vec, ns := timedVectorise(pipe, html, stats)
			rt.text[i] = ns
			rt.docTerms[i] = int32(vec.Len())
			return vec
		},
		published: func(i int, vec vsm.Vector) {
			before := ix.PruneStats()
			t := time.Now()
			got := ix.Match(vec, theta)
			ns := int64(time.Since(t))
			after := ix.PruneStats()
			rt.match[i] = ns
			rt.matches[i] = int32(len(got))
			rt.scanned[i] = after.PostingsScanned - before.PostingsScanned
			rt.skipped[i] = after.BlocksSkipped - before.BlocksSkipped
			seenPubs++
			if seenPubs > half {
				rt.matchSecondHalfNS = append(rt.matchSecondHalfNS, ns)
			}
		},
		observe: func(i int, p *core.Profile, vec vsm.Vector, fd filter.Feedback) {
			if l.st != nil {
				t := time.Now()
				if err := l.st.AppendFeedback(in.users[log[i].user].name, vec, fd); err == nil {
					rt.appendNS[i] = int64(time.Since(t))
					l.appended++
				}
			}
			t := time.Now()
			p.Observe(vec, fd)
			rt.observe[i] = int64(time.Since(t))
		},
		observed: func(i int, p *core.Profile) {
			user := int(log[i].user)
			t := time.Now()
			ix.SetUser(in.users[user].name, p.ProfileVectors())
			if res != nil {
				if _, evicted := res.touch(user); evicted >= 0 {
					ix.SetUser(in.users[evicted].name, nil)
				}
			}
			rt.reindex[i] = int64(time.Since(t))
		},
	}
	return l, nil
}

// finish takes the store's one-off measurements once the log is through.
func (l *layerRungs) finish() (storeMeasures, error) {
	sm, in := l.sm, l.in
	if l.st != nil {
		if l.appended > 0 {
			sm.bytesPerAppend = float64(dirBytes(l.storeDir)-l.bytesBefore) / float64(l.appended)
		}
		// The appends made the lanes dirty, so this checkpoint compacts
		// everything the server journaled plus the replay.
		t := time.Now()
		if _, err := l.st.Checkpoint(1); err != nil {
			return sm, err
		}
		sm.checkpointSecs = time.Since(t).Seconds()
		sm.stateBytesPerUser = float64(dirBytes(l.storeDir)) / float64(len(in.users))
		var restore []float64
		for ui := 0; ui < len(in.users); ui += max(1, len(in.users)/256) {
			t = time.Now()
			if _, ok, err := l.st.RestoreUser(in.users[ui].name); err != nil || !ok {
				return sm, fmt.Errorf("RestoreUser(%s): found=%v err=%v", in.users[ui].name, ok, err)
			}
			restore = append(restore, float64(time.Since(t))/1e3)
		}
		sm.restoreUserUS = mean(restore)
	}
	vectors := 0
	for _, p := range l.mdl.profiles {
		vectors += p.ProfileSize()
	}
	sm.vectorsPerProfile = float64(vectors) / float64(len(l.mdl.profiles))
	return sm, nil
}

func (l *layerRungs) close() {
	if l.st != nil {
		_ = l.st.Close()
	}
	if l.storeDir != "" {
		_ = os.RemoveAll(l.storeDir)
	}
}

// writeSpans dumps the spans, each with its self time, as JSON lines.
func writeSpans(path string, spans []span) error {
	for i, self := range selfTimes(spans) {
		spans[i].Self = self
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// perLayer is BENCHMARK.json's per_layer list: the demoted timings of the
// top rung, then the layers. No bounds: these explain a movement of an
// end-to-end metric, they do not gate.
var perLayer = append(append([]metricDef(nil), demoted...), layers...)

var layers = []metricDef{
	{"text.vectorise_us", "us", "lower", 0},
	{"text.terms_per_doc", "count", "lower", 0},
	{"index.match_us", "us", "lower", 0},
	{"index.matches_per_doc", "count", "higher", 0},
	{"index.postings_scanned_per_doc", "count", "lower", 0},
	{"index.blocks_skipped_per_doc", "count", "higher", 0},
	{"index.reindex_us", "us", "lower", 0},
	{"index.match_after_churn_us", "us", "lower", 0},
	{"core.observe_us", "us", "lower", 0},
	{"core.vectors_per_profile", "count", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.bytes_per_append", "B", "lower", 0},
	{"store.load_s", "s", "lower", 0},
	{"store.checkpoint_s", "s", "lower", 0},
	{"store.state_bytes_per_user", "B", "lower", 0},
	{"store.restore_user_us", "us", "lower", 0},
	{"store.prepare_s", "s", "lower", 0},
	{"pubsub.publish_us", "us", "lower", 0},
	{"pubsub.publish_self_us", "us", "lower", 0},
	{"pubsub.deliver_us_per_recipient", "us", "lower", 0},
	{"pubsub.allocs_per_publish", "count", "lower", 0},
	{"pubsub.allocs_per_delivery", "count", "lower", 0},
	{"pubsub.feedback_us", "us", "lower", 0},
	{"pubsub.feedback_self_us", "us", "lower", 0},
	{"pubsub.hydrate_us", "us", "lower", 0},
	{"wire.publish_self_us", "us", "lower", 0},
	{"wire.feedback_self_us", "us", "lower", 0},
	{"wire.session_self_us", "us", "lower", 0},
	{"wire.transport_self_us", "us", "lower", 0},
	{"wire.bytes_per_delivery", "B", "lower", 0},
	{"wire.deliveries_per_frame", "count", "higher", 0},
	{"wire.rss_kb_per_session", "KB", "lower", 0},
	{"wire.op_tail_ms", "ms", "lower", 0},
	{"wire.op_tail_pct", "%", "higher", 0},
	{"wire.op_samples", "count", "higher", 0},
	{"wire.deliver_tail_ms", "ms", "lower", 0},
	{"wire.deliver_tail_pct", "%", "higher", 0},
	{"wire.deliver_samples", "count", "higher", 0},
	{"trace.unattributed_share", "share", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.text_index_share", "share", "higher", 0},
	{"trace.index_share", "share", "lower", 0},
	{"trace.fanout_session_share", "share", "higher", 0},
	{"loadgen.cpu_share", "share", "lower", 0},
	{"host.steal_share", "share", "lower", 0},
}
