package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/wire"
)

const (
	// checkEvery: every 50th publish runs alone (no other request in
	// flight) and is compared with the brute-force reference.
	checkEvery = 50
	// warmup precedes the measured window; caches fill, the retention
	// ring and every category's "recent document" slot get populated.
	warmup = 2 * time.Second
	// The population is loaded into a fresh server minSetups times, and
	// then again while all set-ups together have taken less than
	// setupBudget, up to maxSetups times: the sub-second set-ups of fanout
	// and restart are repeated nine times, the multi-second ones of match
	// and adapt three. setup_s is the median, the last server is the
	// measured one.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 5 * time.Second
	// loaders is the number of connections the population is loaded over.
	loaders = 4
	// retentionMargin keeps judged documents well inside mmserver's
	// default retention of 4096 published documents.
	retentionMargin = 3000
	// sampledUsers is how many profiles are exported and compared with
	// the reference (and, on restart, with their pre-crash bytes).
	sampledUsers = 32
	// minDeliverySamplesPerSec: a delivery median over fewer samples (2000
	// per 30 s of window) is not reported, the run fails instead.
	minDeliverySamplesPerSec = 2000.0 / 30
)

// opRec is one completed request, as the issuing connection saw it.
type opRec struct {
	kind      opKind
	driver    uint8
	checked   bool // publish that ran alone and is compared with the reference
	ok        bool
	relevant  bool
	page      int32
	user      int32
	doc       int64 // publish: the id assigned; feedback: the document judged
	delivered int32
	tCall     int64 // ns since the run's clock started
	tAck      int64
}

// recvRec is one delivery a session received.
type recvRec struct {
	doc int64
	at  int64
}

// sessionState is one push session and what its reader logged. Everything
// but sess belongs to the reader goroutine until it exits. frames, counted
// and bytes cover only the counting slices of a traced window.
type sessionState struct {
	user    int
	sess    *wire.Session
	recv    []recvRec
	frames  int64
	counted int64 // deliveries in those frames
	bytes   int64
	done    chan struct{}
	err     error
}

// sample is one slice boundary of the measured window. The load is paused
// at a boundary (no request in flight), the server's counters are read, and
// the load resumes: a slice runs from one boundary's resume to the next
// boundary's t.
type sample struct {
	t      int64 // load paused
	resume int64 // load resumed
	cpu    int64 // server CPU ns
	ops    int64 // requests completed so far
	rssKB  int64
	// counting: a traced run's session connections counted their bytes
	// during the slice this boundary starts.
	counting bool
}

// runOptions are the knobs that differ between the benchmark proper, the
// smoke test and the ladder's wire rung.
type runOptions struct {
	seconds      float64
	warmup       time.Duration
	setupRepeats int           // set-ups made whatever they take
	setupBudget  time.Duration // further set-ups (up to maxSetups) while they have taken less than this in all
	maxOps       int64         // stop after this many requests instead of after seconds (smoke test); 0: off
	drivers      int
	traced       bool
	checkEvery   int // every n-th publish is a checked one; 0: checkEvery
}

// factory starts servers for a run.
type factory interface {
	start(stateDir string, fsync bool, maxResident int) (backend, error)
	// canRestart reports whether a stopped server's state directory can be
	// booted again (false for the in-process pipe backend, which then runs
	// the restart workload without its recovery phase).
	canRestart() bool
}

type procFactory struct{ e *env }

func (f procFactory) start(stateDir string, fsync bool, maxResident int) (backend, error) {
	sp, err := f.e.startServer(stateDir, fsync, maxResident)
	if err != nil {
		return nil, err
	}
	if err := sp.waitReady(60 * time.Second); err != nil {
		_ = sp.stop(true)
		return nil, err
	}
	return sp, nil
}

func (procFactory) canRestart() bool { return true }

// runner drives one workload against one server at a time.
type runner struct {
	in   *inputs
	fac  factory
	opts runOptions
	mdl  *model

	t0 time.Time
	be backend

	// gate lets a checked publish run alone: every request holds it
	// shared, a checked publish exclusively. pubMu additionally keeps
	// publishes of a feedback workload from overlapping each other, so
	// that the reference can reproduce every document vector exactly (a
	// vector depends on the collection statistics at its publish); the
	// feedbacks of the other connection still run beside each publish.
	gate  sync.RWMutex
	pubMu sync.Mutex

	logMu sync.Mutex
	log   []opRec

	pubCount atomic.Int64
	opsDone  atomic.Int64
	stop     atomic.Bool
	closing  atomic.Bool
	// counting is the traced run's switch: while set, session connections
	// count the bytes they read and readers count frames. It is on in about
	// half the slices of a traced window (countedSlice), so the two groups'
	// request rates give the tracing overhead.
	counting atomic.Bool

	recentMu  sync.Mutex
	recentDoc []int64 // per category: the latest document published in it
	lastDoc   int64
	lastCat   int
	maxDoc    int64

	sessions []*sessionState

	// Results of the phases before the window.
	setupSecs      []float64
	prepareSecs    float64
	rssBeforeSessK int64
	rssAfterSessK  int64
	preCrash       map[int][]byte // restart: sampled users' Export bytes before the kill
	sampled        []int
	startStates    [][]byte // traced run: every profile as the measured server started with it
	failures       []string
}

func (r *runner) now() int64 { return int64(time.Since(r.t0)) }

func (r *runner) fail(format string, args ...any) {
	r.logMu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.logMu.Unlock()
}

// serverEpoch resets what is scoped to one server process: document ids,
// the request log, the sessions.
func (r *runner) serverEpoch() {
	r.log = nil
	r.sessions = nil
	r.pubCount.Store(0)
	r.opsDone.Store(0)
	r.stop.Store(false)
	r.closing.Store(false)
	r.recentDoc = make([]int64, r.in.ncat)
	for i := range r.recentDoc {
		r.recentDoc[i] = -1
	}
	r.lastDoc, r.lastCat, r.maxDoc = -1, 0, -1
}

// loadPopulation subscribes every user over a few parallel connections:
// Import for trained profiles, Subscribe for keyword subscribers.
func (r *runner) loadPopulation() error {
	users := r.in.users
	errs := make(chan error, loaders)
	for w := 0; w < loaders; w++ {
		go func(w int) {
			c, err := r.be.dial(nil)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := w; i < len(users); i += loaders {
				u := &users[i]
				if u.state != nil {
					err = c.Import(u.name, "MM", u.state)
				} else {
					err = c.Subscribe(u.name, "", u.keywords)
				}
				if err != nil {
					errs <- fmt.Errorf("loading %s: %w", u.name, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < loaders; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openSessions attaches a push session to every probe and starts its reader.
func (r *runner) openSessions() error {
	for _, ui := range r.in.probes {
		st := &sessionState{user: ui, done: make(chan struct{})}
		var counter *byteCounter
		if r.opts.traced {
			counter = &byteCounter{n: &st.bytes, on: &r.counting}
		}
		c, err := r.be.dial(counter)
		if err != nil {
			return err
		}
		sess, err := c.Session(r.in.users[ui].name, 0)
		if err != nil {
			c.Close()
			return fmt.Errorf("session %s: %w", r.in.users[ui].name, err)
		}
		st.sess = sess
		r.sessions = append(r.sessions, st)
		go r.read(st)
	}
	return nil
}

func (r *runner) read(st *sessionState) {
	defer close(st.done)
	for {
		frame, err := st.sess.Recv()
		if err != nil {
			if !r.closing.Load() {
				st.err = err
			}
			return
		}
		at := r.now()
		if r.counting.Load() {
			st.frames++
			st.counted += int64(len(frame.Deliveries))
		}
		for _, d := range frame.Deliveries {
			st.recv = append(st.recv, recvRec{doc: d.Doc, at: at})
		}
		if frame.Closed {
			return
		}
	}
}

// closeSessions ends every session and waits for the readers.
func (r *runner) closeSessions() {
	r.closing.Store(true)
	for _, st := range r.sessions {
		st.sess.Close()
	}
	for _, st := range r.sessions {
		<-st.done
	}
}

func (r *runner) received() int64 {
	var n uint64
	for _, st := range r.sessions {
		n += st.sess.Received()
	}
	return int64(n)
}

// quiesce waits until no session has received anything for 150 ms (at most
// five seconds), i.e. until the server has flushed what it queued.
func (r *runner) quiesce() {
	last, stable := int64(-1), 0
	for waited := 0; waited < 100 && stable < 3; waited++ {
		time.Sleep(50 * time.Millisecond)
		if cur := r.received(); cur == last {
			stable++
		} else {
			last, stable = cur, 0
		}
	}
}

// pickDoc resolves a feedback op to a retained document and the oracle's
// verdict on it: a recent document of one of the user's categories for a
// positive judgment, of some other category for a negative one. Early in a
// server's life the wanted category may have no recent document; the latest
// document of any category stands in and the oracle judges that instead.
func (r *runner) pickDoc(op streamOp) (doc int64, relevant, ok bool) {
	u := &r.in.users[op.user]
	follows := func(cat int) bool {
		for _, c := range u.interests {
			if c == cat {
				return true
			}
		}
		return false
	}
	var cat int
	if op.relevant {
		cat = u.interests[int(op.pick)%len(u.interests)]
	} else {
		cat = int(op.pick) % r.in.ncat
		for follows(cat) {
			cat = (cat + 1) % r.in.ncat
		}
	}
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	if r.lastDoc < 0 {
		return 0, false, false
	}
	doc = r.recentDoc[cat]
	if doc < 0 || doc < r.maxDoc-retentionMargin {
		doc, cat = r.lastDoc, r.lastCat
	}
	return doc, follows(cat), true
}

// do issues one request on c and logs it.
func (r *runner) do(d int, c *wire.Client, op streamOp) {
	rec := opRec{kind: op.kind, driver: uint8(d), page: op.page, user: op.user}
	switch op.kind {
	case opPublish:
		pg := &r.in.pages[op.page]
		every := int64(checkEvery)
		if r.opts.checkEvery > 0 {
			every = int64(r.opts.checkEvery)
		}
		rec.checked = r.pubCount.Add(1)%every == 0
		serial := r.in.spec.FeedbackPerPublish > 0
		if serial {
			r.pubMu.Lock()
		}
		if rec.checked {
			r.gate.Lock()
		} else {
			r.gate.RLock()
		}
		rec.tCall = r.now()
		doc, delivered, err := c.Publish(pg.html)
		rec.tAck = r.now()
		rec.ok, rec.doc, rec.delivered = err == nil, doc, int32(delivered)
		if err != nil {
			r.fail("publish: %v", err)
		} else {
			r.recentMu.Lock()
			r.recentDoc[pg.cat] = doc
			r.lastDoc, r.lastCat = doc, pg.cat
			if doc > r.maxDoc {
				r.maxDoc = doc
			}
			r.recentMu.Unlock()
		}
		r.append(rec)
		if rec.checked {
			r.gate.Unlock()
		} else {
			r.gate.RUnlock()
		}
		if serial {
			r.pubMu.Unlock()
		}
	case opFeedback:
		doc, relevant, ok := r.pickDoc(op)
		if !ok {
			return
		}
		rec.doc, rec.relevant = doc, relevant
		r.gate.RLock()
		rec.tCall = r.now()
		err := c.Feedback(r.in.users[op.user].name, doc, relevant)
		rec.tAck = r.now()
		rec.ok = err == nil
		if err != nil {
			r.fail("feedback %s doc %d: %v", r.in.users[op.user].name, doc, err)
		}
		r.append(rec)
		r.gate.RUnlock()
	}
}

func (r *runner) append(rec opRec) {
	r.logMu.Lock()
	r.log = append(r.log, rec)
	r.logMu.Unlock()
	r.opsDone.Add(1)
}

// firstOps issues the first requests of the measured path on a loaded
// server — driver 0's first publish and, on a feedback workload, its first
// judgment — and returns how many stream ops that consumed.
func (r *runner) firstOps(c *wire.Client) int {
	n := 1 + min(r.in.spec.FeedbackPerPublish, 1)
	for i := 0; i < n; i++ {
		r.do(0, c, r.in.streams[0][i])
	}
	return n
}

// exportUsers downloads the given users' serialized profiles.
func (r *runner) exportUsers(users []int) (map[int][]byte, error) {
	c, err := r.be.dial(nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make(map[int][]byte, len(users))
	for _, ui := range users {
		_, state, err := c.Export(r.in.users[ui].name)
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", r.in.users[ui].name, err)
		}
		out[ui] = state
	}
	return out, nil
}

// sampleUsers picks the users whose profiles are compared byte for byte:
// evenly spaced non-probe users, never the one the first measured feedback
// touches (its profile legitimately differs from the pre-crash bytes).
func (r *runner) sampleUsers() []int {
	skip := -1
	if r.in.spec.FeedbackPerPublish > 0 {
		skip = int(r.in.streams[0][1].user)
	}
	var out []int
	n := len(r.in.users)
	step := max(1, n/sampledUsers)
	for i := r.in.spec.Probes; i < n && len(out) < sampledUsers; i += step {
		if i == skip {
			continue
		}
		out = append(out, i)
	}
	return out
}

// prepareRestart builds the crashed state directory the restart workload
// boots on: server A loads the population and shuts down cleanly (which
// checkpoints every lane); server B boots on that with the resident cap,
// journals TailOps requests durably, has the sampled profiles exported, and
// is SIGKILLed after its last ack. Untimed.
func (r *runner) prepareRestart(dir string) error {
	sp := r.in.spec
	a, err := r.fac.start(dir, false, 0)
	if err != nil {
		return err
	}
	r.be = a
	if err := r.loadPopulation(); err != nil {
		_ = a.stop(true)
		return err
	}
	if err := a.stop(false); err != nil {
		return err
	}
	b, err := r.fac.start(dir, true, sp.resident())
	if err != nil {
		return err
	}
	r.be = b
	r.serverEpoch()
	c, err := b.dial(nil)
	if err != nil {
		_ = b.stop(true)
		return err
	}
	// The tail starts at a publish in the middle of driver 0's stream, away
	// from the ops the measured window begins with.
	cycle := 1 + sp.FeedbackPerPublish
	off := len(r.in.streams[0]) / 2 / cycle * cycle
	for i := 0; i < sp.TailOps; i++ {
		r.do(0, c, r.in.streams[0][(off+i)%len(r.in.streams[0])])
	}
	c.Close()
	if len(r.failures) > 0 {
		_ = b.stop(true)
		return fmt.Errorf("preparing the state dir: %s", r.failures[0])
	}
	r.mdl.newServer()
	if err := r.mdl.replay(r.log, nil, nil); err != nil {
		_ = b.stop(true)
		return err
	}
	if r.preCrash, err = r.exportUsers(r.sampled); err != nil {
		_ = b.stop(true)
		return err
	}
	return b.stop(true)
}

// setup brings up a loaded, session-attached server that has acked its
// first measured-path request, and returns the seconds that took from the
// server's exec — on restart from exec on the crashed directory, i.e. the
// recovery time.
func (r *runner) setup(rep int, preparedDir string) (float64, *wire.Client, int, error) {
	sp := r.in.spec
	stateDir := ""
	if sp.State {
		stateDir = fmt.Sprintf("state-%d", rep)
		if preparedDir != "" {
			if err := copyDir(preparedDir, stateDir); err != nil {
				return 0, nil, 0, err
			}
		}
	}
	start := time.Now()
	be, err := r.fac.start(stateDir, sp.State, sp.resident())
	if err != nil {
		return 0, nil, 0, err
	}
	r.be = be
	r.serverEpoch()
	if preparedDir == "" {
		if err := r.loadPopulation(); err != nil {
			return 0, nil, 0, err
		}
	}
	if pid := be.pid(); pid > 0 {
		r.rssBeforeSessK, _ = procRSSKB(pid)
	}
	if err := r.openSessions(); err != nil {
		return 0, nil, 0, err
	}
	if pid := be.pid(); pid > 0 {
		r.rssAfterSessK, _ = procRSSKB(pid)
	}
	c, err := be.dial(nil)
	if err != nil {
		return 0, nil, 0, err
	}
	used := r.firstOps(c)
	secs := time.Since(start).Seconds()
	if len(r.failures) > 0 {
		c.Close()
		return 0, nil, 0, fmt.Errorf("first request: %s", r.failures[0])
	}
	return secs, c, used, nil
}

// teardown closes the sessions and stops the current server.
func (r *runner) teardown(stateDir string) {
	if r.be == nil {
		return
	}
	r.closeSessions()
	_ = r.be.stop(true)
	r.be = nil
	if stateDir != "" {
		_ = os.RemoveAll(stateDir)
	}
}

// outcome is what one run measured, before it is turned into metrics.
type outcome struct {
	log      []opRec
	sessions []*sessionState
	samples  []sample
	w0, w1   int64
	genCPU   int64 // generator CPU ns inside the window
	steal    float64
	stateDir string // the measured server's state directory, kept for the ladder's store rung
}

// run executes the workload: prepare (restart), the set-ups, the warm-up, the measured window, the drain and the output checks.
func (r *runner) run() (*outcome, error) {
	sp := r.in.spec
	r.t0 = time.Now()
	r.mdl = newModel(r.in)
	r.sampled = r.sampleUsers()
	defer func() { r.teardown("") }()

	preparedDir := ""
	if sp.Restart && r.fac.canRestart() {
		preparedDir = "prepared"
		t := time.Now()
		if err := r.prepareRestart(preparedDir); err != nil {
			return nil, err
		}
		r.prepareSecs = time.Since(t).Seconds()
	}

	var c0 *wire.Client
	var used int
	out := &outcome{}
	for rep, spent := 0, 0.0; ; rep++ {
		secs, c, n, err := r.setup(rep, preparedDir)
		if err != nil {
			return nil, err
		}
		r.setupSecs = append(r.setupSecs, secs)
		spent += secs
		stateDir := ""
		if sp.State {
			stateDir = fmt.Sprintf("state-%d", rep)
		}
		if done := rep + 1; done >= r.opts.setupRepeats && (done >= maxSetups || spent >= r.opts.setupBudget.Seconds()) {
			c0, used, out.stateDir = c, n, stateDir
			break
		}
		c.Close()
		r.teardown(stateDir)
	}

	// Recovered profiles must be the pre-crash profiles, byte for byte.
	if r.preCrash != nil {
		got, err := r.exportUsers(r.sampled)
		if err != nil {
			return nil, err
		}
		for _, ui := range r.sampled {
			if !bytes.Equal(got[ui], r.preCrash[ui]) {
				r.fail("recovery: %s exports %d bytes that differ from the %d taken before the kill",
					r.in.users[ui].name, len(got[ui]), len(r.preCrash[ui]))
			}
		}
	}

	// Drivers: closed loop, one connection each, each cycling its stream.
	clients := []*wire.Client{c0}
	for d := 1; d < r.opts.drivers; d++ {
		c, err := r.be.dial(nil)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	var wg sync.WaitGroup
	for d, c := range clients {
		wg.Add(1)
		go func(d int, c *wire.Client) {
			defer wg.Done()
			defer c.Close()
			stream := r.in.streams[d]
			i := 0
			if d == 0 {
				i = used
			}
			for ; !r.stop.Load(); i++ {
				r.do(d, c, stream[i%len(stream)])
				if r.opts.maxOps > 0 && r.opsDone.Load() >= r.opts.maxOps {
					return
				}
			}
		}(d, c)
	}

	if r.opts.maxOps > 0 {
		out.w0 = r.now()
		wg.Wait()
		out.w1 = r.now()
	} else {
		time.Sleep(r.opts.warmup)
		out.samples, out.genCPU, out.steal = r.window()
		out.w0, out.w1 = out.samples[0].resume, out.samples[len(out.samples)-1].t
		r.stop.Store(true)
		wg.Wait()
	}
	r.quiesce()

	// The reference replays the acknowledged requests; its profiles must
	// then equal what the server exports.
	var exported map[int][]byte
	if sp.FeedbackPerPublish > 0 {
		var err error
		if exported, err = r.exportUsers(r.sampled); err != nil {
			return nil, err
		}
	}
	r.closeSessions()
	_ = r.be.stop(true)
	r.be = nil

	out.log, out.sessions = r.log, r.sessions
	r.checkSessions()
	if r.opts.traced {
		r.startStates = r.mdl.states()
	}
	r.mdl.newServer()
	if err := r.mdl.replay(r.log, r.sessions, r.fail); err != nil {
		return nil, err
	}
	for ui, state := range exported {
		want, err := r.mdl.profiles[ui].MarshalBinary()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(state, want) {
			r.fail("adaptation: %s exports a profile that differs from the reference's replay of its acknowledged feedback (%d vs %d bytes)",
				r.in.users[ui].name, len(state), len(want))
		}
	}
	return out, nil
}

// sliceLen is the length of one slice of the measured window.
const sliceLen = 250 * time.Millisecond

// boundary pauses the load, reads the server's counters and resumes the load.
func (r *runner) boundary() sample {
	r.gate.Lock()
	defer r.gate.Unlock()
	s := sample{t: r.now(), ops: r.opsDone.Load()}
	if pid := r.be.pid(); pid > 0 {
		s.cpu, _ = procCPU(pid)
		s.rssKB, _ = procRSSKB(pid)
	}
	s.resume = r.now()
	return s
}

// window runs the measured window as quarter-second slices and returns
// their boundaries, the generator's own CPU time and the host's steal share
// over the window.
func (r *runner) window() ([]sample, int64, float64) {
	slices := max(1, int(r.opts.seconds/sliceLen.Seconds()+0.5))
	steal0, total0 := hostTicks()
	cpu0 := selfCPU()
	samples := []sample{r.boundary()}
	for i := 1; i <= slices; i++ {
		time.Sleep(sliceLen)
		samples = append(samples, r.boundary())
		on := r.opts.traced && countedSlice(i)
		samples[i].counting = on
		r.counting.Store(on)
	}
	steal1, total1 := hostTicks()
	share := 0.0
	if total1 > total0 {
		share = float64(steal1-steal0) / float64(total1-total0)
	}
	return samples, selfCPU() - cpu0, share
}

// countedSlice picks the slices of a traced window in which bytes are
// counted: the top bit of a golden-ratio hash, a balanced sequence without a
// period. Every other slice would do if the server had no rhythm of its own,
// but with -fsync its collections come about every half second, two slices,
// and neither a trend nor a rhythm may pass for tracing overhead.
func countedSlice(i int) bool { return uint32(i)*2654435761>>31 == 1 }

// checkSessions verifies the delivery accounting of every session: nothing
// dropped on a session-attached subscriber, and received + dropped equal to
// the next sequence number once the server has flushed.
func (r *runner) checkSessions() {
	for _, st := range r.sessions {
		name := r.in.users[st.user].name
		if st.err != nil {
			r.fail("session %s broke: %v", name, st.err)
		}
		rcv, drop, next := st.sess.Received(), st.sess.Dropped(), st.sess.NextSeq()
		if drop > 0 {
			r.fail("session %s: %d deliveries dropped", name, drop)
		}
		if rcv+drop != next {
			r.fail("session %s: received %d + dropped %d != next_seq %d", name, rcv, drop, next)
		}
	}
}

// failedOps counts what the end-to-end failure share is made of.
func (r *runner) failedOps(log []opRec, sessions []*sessionState) (attempted, failed int64) {
	for _, rec := range log {
		attempted++
		if !rec.ok {
			failed++
		}
	}
	for _, st := range sessions {
		rcv, drop, next := st.sess.Received(), st.sess.Dropped(), st.sess.NextSeq()
		failed += int64(drop)
		if rcv+drop != next {
			failed++
		}
	}
	return attempted, failed
}
