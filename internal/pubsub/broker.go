// Package pubsub implements the push-based data-delivery engine the paper's
// profiles exist to serve (Section 1): a broker that accepts published web
// pages, matches each one against every subscriber's profile through an
// inverted profile index, delivers matches, and feeds subscriber relevance
// judgments back into the profiles — MM profiles (core.Profile), which
// adapt online.
//
// Collection statistics (document frequencies, average length) accumulate
// incrementally as documents are published, exactly as the paper's footnote
// 4 prescribes for a real filtering deployment.
//
// Architecture: the Broker is a thin orchestrator over four independently
// locked layers (DESIGN.md §9) —
//
//   - the subscriber registry (registry.go), the one subscriber table of
//     the process;
//   - the document retention window (internal/docstore), a FIFO ring with
//     an atomic id allocator;
//   - the collection statistics (vsm.Stats), which a publish updates
//     once and reads per term;
//   - the inverted profile index (internal/index), one structure behind
//     one RWMutex.
//
// No broker-wide lock exists: publishes from many goroutines proceed in
// parallel end to end, serializing only per subscriber (each subscriber's
// learner and queue are guarded by that subscriber's own mutex). Document
// ids are assigned in a total order, but deliveries to one subscriber from
// concurrent publishers may arrive slightly out of id order.
package pubsub

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/docstore"
	"mmprofile/internal/filter"
	"mmprofile/internal/index"
	"mmprofile/internal/intern"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/text"
	"mmprofile/internal/trace"
	"mmprofile/internal/vsm"
)

// Journal receives the broker's profile-mutating operations for durable
// logging; *store.Store implements it. Subscribe, Feedback and Unsubscribe
// surface journal failures to the caller (the mutation is not applied in
// memory when journaling fails). Every record of a user is appended while
// the broker holds that user's subscriber lock, never the registry's, so
// one user's records reach the journal in the order their operations take
// effect (DESIGN.md §9).
type Journal interface {
	AppendSubscribe(user, learner string, state []byte) error
	AppendUnsubscribe(user string) error
	// AppendFeedbackTraced records one judgment. When sp is a live span (it
	// may be nil) the append's WAL write and group-commit wait become its
	// children, separating the two very different ways a durable append
	// can be slow.
	AppendFeedbackTraced(user string, v vsm.Vector, fd filter.Feedback, sp *trace.Span) error
}

// errDuplicate is what registering a taken id answers.
func errDuplicate(id string) error {
	return fmt.Errorf("pubsub: duplicate subscriber %q", id)
}

// errUnknown is what every by-id operation answers for an id that is not
// (or no longer) registered.
func errUnknown(id string) error {
	return fmt.Errorf("pubsub: unknown subscriber %q", id)
}

// Options configures a Broker. The zero value gets sensible defaults from
// New.
type Options struct {
	// Threshold is the minimum profile/document similarity for delivery.
	Threshold float64
	// QueueSize is each subscriber's delivery buffer; when it overflows the
	// oldest undelivered item is dropped (and counted).
	QueueSize int
	// Retention is how many recent published documents are kept for
	// feedback resolution — the paper notes document vectors are "typically
	// only retained for a short duration" (Section 4.3).
	Retention int
	// Journal, when set, receives every subscribe/unsubscribe/feedback for
	// durable logging.
	Journal Journal
	// RetainContent keeps each published page's raw content alongside its
	// vector for the retention window, so subscribers can fetch what they
	// were sent (DocumentContent / the wire "fetch" op). Off by default:
	// raw pages dominate memory at scale.
	RetainContent bool
	// Metrics is the registry the broker's instrumentation registers into,
	// shared with the profile store and exposition endpoints in mmserver.
	// When nil the broker creates a private registry, reachable via
	// Broker.Metrics() — instrumentation is always on (its hot-path cost
	// is three clock reads and a few atomic adds per publish). One broker
	// per registry: sharing a registry between brokers would silently
	// merge their series.
	Metrics *metrics.Registry
	// Trace, when set, records request-scoped span trees for sampled (and
	// slow) publishes and feedbacks — see internal/trace and DESIGN.md §11.
	// Nil disables tracing; with a tracer set but nothing sampled, the
	// publish hot path pays no allocations and no extra clock reads.
	Trace *trace.Tracer
	// Hydrator, when set, restores evicted subscriber profiles on demand
	// (lazy hydration, DESIGN.md §14); *store.Store implements it. Without
	// one, SubscribeRestored requires a resident learner and MaxResident is
	// ignored.
	Hydrator Hydrator
	// MaxResident bounds how many subscriber profiles are resident in the
	// heap at once (mmserver -max-resident-profiles). When the bound is
	// exceeded the least-recently-accessed profile is evicted: its learner
	// is dropped (the journal already holds every mutation) and rebuilt by
	// the Hydrator on the subscriber's next feedback or introspection.
	// Recency is driven by profile access — feedback, hydration, export,
	// introspection — not by deliveries: the publish hot path never touches
	// the residency list. 0 means unbounded (every profile stays resident).
	// Requires Hydrator.
	MaxResident int
	// Log, when set, receives the broker's structured events: subscriber
	// lifecycle at info, per-publish/per-feedback detail at debug. Debug
	// statements on the publish hot path are guarded by Log.Enabled, so
	// with the level at info (or Log nil) they cost one atomic load —
	// zero allocations, zero clock reads (the obs zero-alloc contract,
	// pinned by TestPublishUnsampledAddsNoAllocs).
	Log *obs.Logger
}

// DefaultOptions returns the broker defaults: threshold 0.25, queues of
// 128, retention of 4096 documents.
func DefaultOptions() Options {
	return Options{Threshold: 0.25, QueueSize: 128, Retention: 4096}
}

// Delivery is one pushed document: its id, the match score, and the
// subscriber-scoped sequence number.
type Delivery struct {
	Doc   int64
	Score float64
	// Seq is this delivery's position in the subscriber's outbound stream:
	// the first delivery ever enqueued for a subscriber carries 0, the next
	// 1, and so on, with no number ever reused or skipped at assignment.
	// When the bounded queue overflows and the oldest undelivered item is
	// dropped, its sequence number vanishes from the stream — so a consumer
	// that sees Seq jump knows exactly how many deliveries it lost, which is
	// what makes the drop-oldest policy observable end to end (the wire
	// session layer forwards Seq to clients for precisely this).
	Seq uint64
}

// Counters aggregates broker activity for monitoring.
type Counters struct {
	Published   int64
	Deliveries  int64
	Dropped     int64
	Feedbacks   int64
	Subscribers int
}

// queueSlot is a queued Delivery without its Seq, which its position gives.
type queueSlot struct {
	doc   int64
	score float64
}

type subscriber struct {
	id string

	// mu guards learner, closed, lastOps, lastSize, lastPairs — and serializes each
	// profile mutation with its journal append and its index refresh, so
	// the WAL order, the profile state, and the index entries for one
	// subscriber can never disagree (see Feedback and Unsubscribe).
	// learner is nil while the subscriber is evicted (lazy hydration,
	// hydrate.go): the profile's state lives only in the store until the
	// next access rebuilds it.
	mu      sync.Mutex
	learner *core.Profile
	closed  bool

	// ring is the delivery queue, a circular buffer under mu: head indexes
	// the oldest queued delivery and queued counts them. It is nil until the
	// first delivery — a subscriber nobody has delivered to, every evicted
	// stub of a lazy boot, holds no buffer — and grows 4 → 8 → … →
	// Options.QueueSize as it fills, never shrinking (mm_pubsub_queue_slots
	// shows what bursts have left allocated). A slot holds no sequence
	// number: deliver stamps consecutive ones and dropping only ever takes
	// the oldest, so the queue is always the run ending at nextSeq-1.
	ring         []queueSlot
	head, queued int
	// wakes are the consumers' registrations (Subscription.OnReady), called
	// under mu; nil while nobody consumes, so an evicted stub holds none.
	wakes []*func()

	// nextSeq is the sequence number the next delivery will carry (equal to
	// the count of deliveries ever assigned to this subscriber); dropped
	// counts deliveries discarded by the queue's drop-oldest policy. Both
	// are guarded by mu — deliver already holds it — and together they give
	// consumers the invariant received + queued + dropped == nextSeq, the
	// "no silent loss" contract the wire session layer exposes.
	nextSeq uint64
	dropped uint64

	// lastOps/lastSize are the adaptation-telemetry baselines: the
	// profile's operation tallies and vector count as of the last
	// recordAdaptation (initialized at Subscribe, re-baselined on
	// hydration).
	lastOps  core.OpCounts
	lastSize int
	// lastPairs is the (vector, term) pair count last handed to the index
	// (indexLocked): what mm_profile_resident_pairs holds for this
	// subscriber.
	lastPairs int

	// Intrusive residency-LRU links, guarded by Broker.lru.mu only (a leaf
	// lock; see residencyLRU).
	lruPrev, lruNext *subscriber
	inLRU            bool
}

// Broker is the dissemination engine: an orchestrator composing the
// registry, docstore, termstats, and index layers. All methods are
// safe for concurrent use.
type Broker struct {
	opts Options
	pipe *text.Pipeline
	idx  *index.Index

	stats *vsm.Stats
	docs  *docstore.Store
	reg   *registry
	lru   residencyLRU

	// m holds every instrument the broker records into; the dissemination
	// counters inside it also back Stats().
	m brokerMetrics
}

// New creates a broker; zero fields of opts take defaults.
func New(opts Options) *Broker {
	def := DefaultOptions()
	if opts.Threshold == 0 {
		opts.Threshold = def.Threshold
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = def.QueueSize
	}
	if opts.Retention <= 0 {
		opts.Retention = def.Retention
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	b := &Broker{
		opts:  opts,
		pipe:  text.NewPipeline(),
		stats: vsm.NewStats(),
		idx:   index.New(),
		reg:   newRegistry(),
		docs:  docstore.New(opts.Retention),
		m:     newBrokerMetrics(reg),
	}
	b.idx.Instrument(reg)
	b.pipe.Instrument(reg)
	reg.GaugeFunc("mm_intern_terms",
		"Distinct terms in the process-wide term table (profile vocabulary; publishing never grows it).",
		func() float64 { return float64(intern.Terms.Len()) })
	reg.GaugeFunc("mm_pubsub_subscribers",
		"Currently registered subscribers.",
		func() float64 { return float64(b.reg.len()) })
	return b
}

// Subscription is a subscriber's handle: a delivery queue (OnReady, Take)
// plus feedback and introspection methods.
type Subscription struct {
	b   *Broker
	sub *subscriber
}

// Subscription returns the handle of the subscriber currently registered
// under id — however it got there: Subscribe, an import, or a boot-time
// SubscribeRestored. The wire server resolves session and profile
// requests through it, so the registry is the only subscriber table.
func (b *Broker) Subscription(id string) (*Subscription, bool) {
	s, ok := b.reg.get(id)
	if !ok {
		return nil, false
	}
	return &Subscription{b: b, sub: s}, true
}

// Subscribe registers a profile under the given id. The profile is owned
// by the broker from here on: all further access must go through the
// subscription (the broker serializes updates per subscriber). When a
// journal is configured, the subscription, with the profile's initial
// state, is logged before being applied.
func (b *Broker) Subscribe(id string, l *core.Profile) (*Subscription, error) {
	var state []byte
	if b.opts.Journal != nil {
		var err error
		if state, err = l.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("pubsub: snapshot %q: %w", id, err)
		}
	}
	return b.subscribe(id, l, true, state, nil)
}

// Import subscribes id with a profile of the named learner (core.NewNamed)
// loaded from state, a MarshalBinary snapshot; an empty state is a fresh
// profile. It is Subscribe for the bytes a client exported, and decodes
// them against the match index (core.Profile.UnmarshalFrom): a vector the
// index holds, decoded from the very same bytes, is taken from it, and
// every other vector's digest names the entry it lands in. The journal
// records state itself, not a re-encoding: replay decodes the bytes the
// import decoded. state is not retained.
func (b *Broker) Import(id, learner string, state []byte) (*Subscription, error) {
	l, err := core.NewNamed(learner, nil)
	if err != nil {
		return nil, fmt.Errorf("pubsub: import %q: %w", id, err)
	}
	var names []vsm.Digest
	if len(state) > 0 {
		if names, err = l.UnmarshalFrom(state, b.idx); err != nil {
			return nil, fmt.Errorf("pubsub: import %q: %w", id, err)
		}
	}
	return b.subscribe(id, l, true, state, names)
}

// subscribe is the one registration path behind Subscribe and Import
// (journaled, with state as the record's) and SubscribeRestored with a
// resident profile (journal false: the store holds its record already).
// names are the digests of the profile's vectors an import decoded, nil
// otherwise.
//
// The subscriber is registered already locked, and its record is appended
// and indexed under that hold alone, as every record of a user is: nothing
// is delivered to it before the record is durable, and a Feedback or
// Unsubscribe of the id waits for the outcome — so the vectors the first
// reindex hands over are the ones names were taken of. A journal error
// closes it and frees the id. The record follows the duplicate check, so a
// subscribe that fails as a duplicate never clobbers the existing user on
// replay.
func (b *Broker) subscribe(id string, l *core.Profile, journal bool, state []byte, names []vsm.Digest) (*Subscription, error) {
	// Telemetry baselines: adaptation counters report only operations
	// performed under this broker, not the profile's prior history
	// (keyword seeding, journal replay).
	s := &subscriber{id: id, learner: l, lastOps: l.Counts(), lastSize: l.ProfileSize()}
	defer b.enforceResidency()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !b.reg.insert(id, s) {
		return nil, errDuplicate(id)
	}
	if journal && b.opts.Journal != nil {
		if err := b.opts.Journal.AppendSubscribe(id, l.Name(), state); err != nil {
			s.closed = true
			b.reg.remove(id, s)
			return nil, fmt.Errorf("pubsub: journal: %w", err)
		}
	}
	b.m.profileVectors.Add(float64(s.lastSize))
	b.m.residentProfiles.Add(1)
	b.indexLocked(s, names)
	if b.bounded() {
		b.lru.touch(s)
	}
	// Debug, not info: load tests subscribe by the hundred thousand.
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: subscribe",
			slog.String("user", id),
			slog.String("learner", l.Name()),
			slog.Int("profile_vectors", s.lastSize))
	}
	return &Subscription{b: b, sub: s}, nil
}

// SubscribeKeywords registers a fresh MM profile seeded from an explicit
// keyword list — the SIFT-style bootstrap of Section 6. The seed vector
// carries uniform weights over the stemmed keywords; feedback then adapts
// the profile automatically.
func (b *Broker) SubscribeKeywords(id string, keywords []string) (*Subscription, error) {
	l := core.NewDefault()
	m := make(map[string]float64, len(keywords))
	for _, k := range keywords {
		for _, tok := range text.Tokenize(k) {
			if text.IsWord(tok) && !text.IsStopWord(tok) {
				m[text.Stem(tok)] = 1
			}
		}
	}
	if seed := vsm.FromMap(m).Normalized(); !seed.IsZero() {
		l.Observe(seed, filter.Relevant)
	}
	return b.Subscribe(id, l)
}

// Unsubscribe removes a subscriber and closes its delivery stream: what is
// queued stays takeable, and every registered consumer is woken. The
// journal append, the close, the index removal and, last, the id's removal
// from the registry all happen under the subscriber's lock: a Feedback
// racing this call either completes fully before it (its journal record
// precedes the unsubscribe record, and its index entries are removed here)
// or observes closed and does nothing, and a Subscribe of the same id
// either fails as a duplicate or appends its record after this one. A
// journal failure is returned with nothing removed; an unknown id is not
// an error.
func (b *Broker) Unsubscribe(id string) error {
	s, ok := b.reg.get(id)
	if !ok {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if b.opts.Journal != nil {
		if err := b.opts.Journal.AppendUnsubscribe(id); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("pubsub: journal: %w", err)
		}
	}
	s.closed = true
	s.wakeLocked()
	b.m.queueSlots.Add(float64(-len(s.ring)))
	b.idx.RemoveUser(id)
	resident := s.learner != nil
	gone, pairs := s.lastSize, s.lastPairs
	s.lastSize, s.lastPairs = 0, 0
	b.reg.remove(id, s)
	s.mu.Unlock()
	b.lru.drop(s)
	b.m.profileVectors.Add(float64(-gone))
	b.m.residentPairs.Add(float64(-pairs))
	if resident {
		b.m.residentProfiles.Add(-1)
	}
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: unsubscribe", slog.String("user", id))
	}
	return nil
}

// Publish ingests one raw page: it is run through the processing pipeline,
// added to the incremental collection statistics, vectorized with the
// statistics as they stand, matched against all profiles, and delivered to
// every subscriber whose best profile vector clears the threshold. It
// returns the assigned document id and the number of deliveries.
func (b *Broker) Publish(page string) (int64, int) {
	return b.PublishSpan(page, nil)
}

// PublishSpan is Publish under an explicit parent span, which may be nil:
// the wire server passes its request root so the broker's match and
// fan-out phases nest inside the request trace. Without a parent the
// broker roots its own trace when the tracer samples this publish.
func (b *Broker) PublishSpan(page string, parent *trace.Span) (int64, int) {
	terms := b.pipe.Terms(page)
	// The statistics admit concurrent updates and reads, so the
	// expensive vectorization runs outside any statistics critical section;
	// each term weight sees the statistics as they stand at that instant.
	b.stats.Add(terms)
	vec := vsm.DocumentVector(terms, vsm.Bel{Stats: b.stats})
	content := ""
	if b.opts.RetainContent {
		content = page
	}
	return b.publishRecord(vec, content, parent)
}

// PublishVector ingests a pre-vectorized document (it must be unit-
// normalized); used when documents arrive already processed, and by the
// benchmarks.
func (b *Broker) PublishVector(vec vsm.Vector) (int64, int) {
	return b.publishRecord(vec, "", nil)
}

func (b *Broker) publishRecord(vec vsm.Vector, content string, parent *trace.Span) (int64, int) {
	t0 := time.Now()
	// Span setup costs nothing unless this request is captured: ChildAt on
	// a nil parent and RootAt without a winning sampling decision both
	// return nil, and every Span method on nil is a no-op. Timestamps are
	// the three clock reads the latency histograms take anyway.
	sp := parent.ChildAt("pubsub.publish", t0)
	if sp == nil {
		sp = b.opts.Trace.RootAt("pubsub.publish", t0, trace.Remote{})
	}
	// Each term is looked up once, into the form the docstore keeps for
	// feedback resolution and the matcher reads: ids for the terms the table
	// holds, strings for the rest. The docstore assigns the id and evicts
	// the oldest document under its lock.
	doc := vsm.Retain(vec)
	id, evicted := b.docs.Put(doc, content)
	b.m.published.Inc()
	if evicted {
		b.m.evictions.Inc()
	}

	if vec.IsZero() {
		b.m.publishLat.ObserveSince(t0)
		sp.SetInt("doc", id)
		sp.SetBool("zero_doc", true)
		sp.End()
		return id, 0
	}

	ms := sp.ChildAt("index.match", t0)
	matches := b.idx.MatchDoc(doc, b.opts.Threshold)

	// Fan-out cost is O(matches), not O(all subscribers): a profile is
	// reached only through its match. Every match resolves under one hold
	// of the registry's read lock, released before any delivery.
	targets := make([]fanout, 0, len(matches))
	b.reg.mu.RLock()
	for _, m := range matches {
		if s, ok := b.reg.subs[m.User]; ok {
			targets = append(targets, fanout{s: s, score: m.Score})
		}
	}
	b.reg.mu.RUnlock()
	// One clock read separates matching from fan-out; together with t0 and
	// the final read it yields all three hot-path histograms and the two
	// phase spans.
	t1 := time.Now()
	ms.EndAt(t1)
	tid := uint64(sp.Trace())
	if tid != 0 {
		b.m.matchLat.ObserveExemplar(t1.Sub(t0).Seconds(), tid)
	} else {
		b.m.matchLat.Observe(t1.Sub(t0).Seconds())
	}

	ds := sp.ChildAt("pubsub.deliver", t1)
	for i := range targets {
		t := &targets[i]
		t.delivered, t.dropped = b.deliver(t.s, id, t.score)
	}
	delivered := b.attribute(targets)
	t2 := time.Now()
	ds.EndAt(t2)
	if sp != nil {
		sp.SetInt("doc", id)
		sp.SetInt("matches", int64(len(targets)))
		sp.SetInt("deliveries", int64(delivered))
		sp.EndAt(t2)
	} else if tr := b.opts.Trace; tr.Slow(t2.Sub(t0)) {
		// Head sampling skipped this publish but it met the slow threshold:
		// capture it post hoc from the clocks already in hand. The id links
		// the histogram exemplars below to the synthetic trace.
		tid = uint64(tr.CaptureSlow("pubsub.publish", t0, t2,
			trace.Int("doc", id), trace.Int("deliveries", int64(delivered))))
	}
	if tid != 0 {
		b.m.deliverLat.ObserveExemplar(t2.Sub(t1).Seconds(), tid)
		b.m.publishLat.ObserveExemplar(t2.Sub(t0).Seconds(), tid)
	} else {
		b.m.deliverLat.Observe(t2.Sub(t1).Seconds())
		b.m.publishLat.Observe(t2.Sub(t0).Seconds())
	}
	// Hot-path log: the Enabled guard keeps attribute construction off
	// the disabled path entirely (see Options.Log).
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: publish",
			slog.Int64("doc", id),
			slog.Int("matches", len(targets)),
			slog.Int("deliveries", delivered),
			obs.TraceAttr(sp))
	}
	return id, delivered
}

// wakeLocked calls every consumer's wake. Caller holds s.mu.
func (s *subscriber) wakeLocked() {
	for _, w := range s.wakes {
		(*w)()
	}
}

// fanout is one matched subscriber of a publish, and what delivering to it
// did.
type fanout struct {
	s                  *subscriber
	score              float64
	delivered, dropped bool
}

// attribute adds one publish's deliveries and drops to the dissemination
// counters and the per-subscriber dimensions, taking each sketch's lock
// once per publish rather than once per delivery, and returns how many
// deliveries there were.
func (b *Broker) attribute(ts []fanout) (delivered int) {
	dropped := 0
	for _, t := range ts {
		delivered += int(one(t.delivered))
		dropped += int(one(t.dropped))
	}
	if delivered == 0 {
		return 0
	}
	b.m.deliveries.Add(int64(delivered))
	b.m.topDeliveries.OfferEach(len(ts), func(i int) (string, float64) { return ts[i].s.id, one(ts[i].delivered) })
	if dropped > 0 {
		b.m.dropped.Add(int64(dropped))
		b.m.topDrops.OfferEach(len(ts), func(i int) (string, float64) { return ts[i].s.id, one(ts[i].dropped) })
	}
	return delivered
}

// one is a flag as an offer's weight: 1 when set, 0 (not offered) when not.
func one(set bool) float64 {
	if set {
		return 1
	}
	return 0
}

// deliver enqueues without blocking, dropping the oldest undelivered item
// when the queue is full at Options.QueueSize. It reports whether the
// delivery was enqueued (false only when the subscriber is gone) and
// whether an older one was dropped for it; the publish counts both
// (attribute). Each enqueued delivery takes the subscriber's next sequence
// number under the same lock, so sequence numbers enter the queue in
// strictly ascending order; a drop bumps the subscriber's own counter, the
// gap signal consumers read beside every batch.
func (b *Broker) deliver(s *subscriber, doc int64, score float64) (ok, dropped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	s.nextSeq++
	if s.queued == len(s.ring) {
		if len(s.ring) < b.opts.QueueSize {
			b.growLocked(s)
		} else {
			// Full: the slot the oldest delivery leaves is the one this takes.
			s.head = (s.head + 1) % len(s.ring)
			s.queued--
			s.dropped++
			dropped = true
		}
	}
	s.ring[(s.head+s.queued)%len(s.ring)] = queueSlot{doc, score}
	s.queued++
	s.wakeLocked()
	return true, dropped
}

// growLocked doubles a full ring (from nothing to 4 slots), up to
// Options.QueueSize, unwrapping it to start at slot 0. Caller holds s.mu.
func (b *Broker) growLocked(s *subscriber) {
	n := min(max(4, 2*len(s.ring)), b.opts.QueueSize)
	ring := make([]queueSlot, n)
	k := copy(ring, s.ring[s.head:])
	copy(ring[k:], s.ring[:s.head])
	b.m.queueSlots.Add(float64(n - len(s.ring)))
	s.ring, s.head = ring, 0
}

// Feedback applies a subscriber's relevance judgment for a delivered (or
// at least still-retained) document and refreshes the subscriber's index
// entries, since the judgment may have reshaped the profile.
//
// The whole mutation — journal append, learner update, index refresh —
// runs under the subscriber's lock, with a closed re-check first: a
// concurrent Unsubscribe either happens entirely after (and removes what
// this call indexed) or entirely before (and this call reports an unknown
// subscriber without journaling), so the index can never be left with
// ghost entries and the WAL never records feedback after an unsubscribe
// for the same user.
func (b *Broker) Feedback(user string, doc int64, fd filter.Feedback) error {
	return b.FeedbackSpan(user, doc, fd, nil)
}

// FeedbackSpan is Feedback under an explicit parent span (nil is fine; see
// PublishSpan). A captured feedback records its journal append, profile
// update, and reindex as child spans, and tags the learner's audit journal
// with the trace id so /explainz events link back to /tracez.
func (b *Broker) FeedbackSpan(user string, doc int64, fd filter.Feedback, parent *trace.Span) error {
	t0 := time.Now()
	sp := parent.ChildAt("pubsub.feedback", t0)
	if sp == nil {
		sp = b.opts.Trace.RootAt("pubsub.feedback", t0, trace.Remote{})
	}
	err := b.applyFeedback(user, doc, fd, sp)
	t1 := time.Now()
	tid := uint64(sp.Trace())
	if sp != nil {
		sp.SetInt("doc", doc)
		sp.SetString("user", user)
		if err != nil {
			sp.SetString("error", err.Error())
		}
		sp.EndAt(t1)
	} else if tr := b.opts.Trace; err == nil && tr.Slow(t1.Sub(t0)) {
		tid = uint64(tr.CaptureSlow("pubsub.feedback", t0, t1,
			trace.Int("doc", doc), trace.String("user", user)))
	}
	if err != nil {
		if b.opts.Log.Enabled(obs.LevelDebug) {
			b.opts.Log.Debug("pubsub: feedback rejected",
				slog.String("user", user),
				slog.Int64("doc", doc),
				slog.String("err", err.Error()),
				obs.TraceAttr(sp))
		}
		return err
	}
	b.m.feedbacks.Inc()
	if tid != 0 {
		b.m.feedbackLat.ObserveExemplar(t1.Sub(t0).Seconds(), tid)
	} else {
		b.m.feedbackLat.Observe(t1.Sub(t0).Seconds())
	}
	if b.opts.Log.Enabled(obs.LevelDebug) {
		b.opts.Log.Debug("pubsub: feedback",
			slog.String("user", user),
			slog.Int64("doc", doc),
			obs.TraceAttr(sp))
	}
	return nil
}

func (b *Broker) applyFeedback(user string, doc int64, fd filter.Feedback, sp *trace.Span) error {
	s, ok := b.reg.get(user)
	if !ok {
		return errUnknown(user)
	}
	rec, ok := b.docs.Get(doc)
	if !ok {
		return fmt.Errorf("pubsub: document %d not retained (retention %d)", doc, b.opts.Retention)
	}
	vec := rec.Doc.Vector()
	// An evicted subscriber hydrates before the journal append so the
	// learner observes this judgment on top of its full history.
	return b.withLearner(s, sp, func(l *core.Profile) error {
		if b.opts.Journal != nil {
			// The store itself spans the WAL write and commit wait under sp.
			if err := b.opts.Journal.AppendFeedbackTraced(user, vec, fd, sp); err != nil {
				return fmt.Errorf("pubsub: journal: %w", err)
			}
		}
		// Trace() is 0 (and the hex empty) when this request is untraced;
		// the document id is worth tagging either way.
		l.TagNextObserve(doc, sp.Trace().String())
		os := sp.Child("core.observe")
		l.Observe(vec, fd)
		os.End()
		b.recordAdaptation(s)
		rs := sp.Child("index.reindex")
		b.indexLocked(s, nil)
		rs.End()
		return nil
	})
}

// withLearner is the one way to reach a subscriber's profile: it runs fn
// on s's profile under s's lock, hydrating an evicted profile first and
// refreshing its residency recency, and errors without calling fn when s
// was unsubscribed or cannot be hydrated. The residency bound is enforced
// after the lock is released — it may pick this very subscriber as its
// victim.
func (b *Broker) withLearner(s *subscriber, sp *trace.Span, fn func(*core.Profile) error) error {
	defer b.enforceResidency()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errUnknown(s.id)
	}
	if s.learner == nil {
		if err := b.hydrateLocked(s, sp); err != nil {
			return err
		}
	} else if b.bounded() {
		b.lru.touch(s)
	}
	return fn(s.learner)
}

// userLearner is withLearner by id.
func (b *Broker) userLearner(user string, fn func(*core.Profile) error) error {
	s, ok := b.reg.get(user)
	if !ok {
		return errUnknown(user)
	}
	return b.withLearner(s, nil, fn)
}

// indexLocked hands a resident profile's current vectors to the match
// index as the profile holds them, packed to term ids, with no copy — and
// settles the resident-pairs gauge on the way. The profile then adopts the
// vectors the index shares with other holders, so a vector many users hold
// is one copy in the process. It is the one place subscribe, feedback and
// hydration reindex through; an import's first reindex hands along the
// digests of the vectors it decoded (names). Caller holds s.mu and
// s.learner is set.
func (b *Broker) indexLocked(s *subscriber, names []vsm.Digest) {
	vecs := s.learner.PackedVectors()
	pairs := 0
	for _, p := range vecs {
		pairs += p.Len()
	}
	b.m.residentPairs.Add(float64(pairs - s.lastPairs))
	s.lastPairs = pairs
	if shared := b.idx.SetPacked(s.id, vecs, names...); len(vecs) > 0 && &shared[0] != &vecs[0] {
		s.learner.AdoptPacked(shared)
	}
}

// ProfileSnapshot is one subscriber's serialized profile, as ExportProfile
// hands it out.
type ProfileSnapshot struct {
	User    string
	Learner string
	Data    []byte
}

// ExportProfile serializes one subscriber's profile (profile portability:
// download a profile from one broker, import it into another).
func (b *Broker) ExportProfile(user string) (ProfileSnapshot, error) {
	snap := ProfileSnapshot{User: user}
	err := b.userLearner(user, func(l *core.Profile) error {
		blob, err := l.MarshalBinary()
		if err != nil {
			return fmt.Errorf("pubsub: export %q: %w", user, err)
		}
		snap.Learner, snap.Data = l.Name(), blob
		return nil
	})
	if err != nil {
		return ProfileSnapshot{}, err
	}
	return snap, nil
}

// DocumentVector returns the retained vector of a published document, for
// subscribers that want to inspect what they were sent.
func (b *Broker) DocumentVector(doc int64) (vsm.Vector, bool) {
	rec, ok := b.docs.Get(doc)
	if !ok {
		return vsm.Vector{}, false
	}
	v := rec.Doc.Vector()
	v.Weights = slices.Clone(v.Weights)
	return v, true
}

// DocumentContent returns the retained raw page of a published document;
// it requires Options.RetainContent and a document still in the retention
// window.
func (b *Broker) DocumentContent(doc int64) (string, bool) {
	rec, ok := b.docs.Get(doc)
	if !ok || rec.Content == "" {
		return "", false
	}
	return rec.Content, true
}

// Stats returns a snapshot of broker activity.
func (b *Broker) Stats() Counters {
	return Counters{
		Published:   b.m.published.Value(),
		Deliveries:  b.m.deliveries.Value(),
		Dropped:     b.m.dropped.Value(),
		Feedbacks:   b.m.feedbacks.Value(),
		Subscribers: b.reg.len(),
	}
}

// IndexStats returns the profile index's exact size, compacting the
// posting space first if it holds tombstones.
func (b *Broker) IndexStats() index.Stats { return b.idx.Size() }

// QueueSize returns the most deliveries one subscriber's queue holds
// (Options.QueueSize after defaults) — and so the most one Take can move.
func (b *Broker) QueueSize() int { return b.opts.QueueSize }

// PingPipeline probes the locks the publish path takes — a registry read,
// a docstore read, and the index's read lock — and returns once
// all of them were acquired, having changed nothing (IndexStats compacts;
// this must not). Health heartbeat goroutines call it
// periodically: if any layer is wedged (a lock held forever), the ping
// blocks, the heartbeat goes stale, and /readyz degrades — without the
// /readyz handler itself ever touching the wedged lock.
func (b *Broker) PingPipeline() {
	_, _ = b.reg.get("")
	_, _ = b.docs.Get(0)
	_ = b.idx.Probe()
}

// OnReady registers wake as a consumer's signal to Take: it is called when
// a delivery is queued, when a Take leaves deliveries behind, and when
// Unsubscribe closes the stream — and at once if deliveries are already
// queued or the stream is closed — so a consumer that Takes after every
// wake is woken until Take reports closed. A wake may find nothing: every
// registration on a subscriber is woken, and another consumer may have
// taken what it announced. wake runs under the subscriber's lock, so it
// must neither block nor call back into the broker. cancel removes the
// registration.
func (s *Subscription) OnReady(wake func()) (cancel func()) {
	sub, w := s.sub, &wake
	sub.mu.Lock()
	sub.wakes = append(sub.wakes, w)
	if sub.queued > 0 || sub.closed {
		wake()
	}
	sub.mu.Unlock()
	return func() {
		sub.mu.Lock()
		if i := slices.Index(sub.wakes, w); i >= 0 {
			sub.wakes = slices.Delete(sub.wakes, i, i+1)
		}
		if len(sub.wakes) == 0 {
			sub.wakes = nil
		}
		sub.mu.Unlock()
	}
}

// Take moves up to len(buf) queued deliveries, oldest first, into buf and
// reports how many, together with the accounting as of that same instant:
// nextSeq and dropped as DeliveryStats defines them, and closed once the
// subscriber is unsubscribed and its queue is empty — what Take returned
// with it, possibly nothing, is the stream's tail. It never blocks; a
// consumer that finds nothing waits for its OnReady wake.
func (s *Subscription) Take(buf []Delivery) (n int, nextSeq, dropped uint64, closed bool) {
	sub := s.sub
	sub.mu.Lock()
	defer sub.mu.Unlock()
	n = min(len(buf), sub.queued)
	seq, at := sub.nextSeq-uint64(sub.queued), sub.head
	for i := range buf[:n] {
		q := sub.ring[at]
		buf[i] = Delivery{Doc: q.doc, Score: q.score, Seq: seq + uint64(i)}
		if at++; at == len(sub.ring) {
			at = 0
		}
	}
	if sub.queued -= n; sub.queued == 0 {
		sub.head = 0
	} else {
		sub.head = at
		sub.wakeLocked() // another consumer, or this one's next turn
	}
	return n, sub.nextSeq, sub.dropped, sub.closed && sub.queued == 0
}

// ID returns the subscriber id.
func (s *Subscription) ID() string { return s.sub.id }

// DeliveryStats reports the subscription's outbound accounting: nextSeq is
// the sequence number the next delivery will carry (== deliveries assigned
// so far), dropped is how many of those were discarded by the queue's
// drop-oldest policy. A consumer that has received r deliveries and sees
// dropped d knows nextSeq - r - d items are still queued; once the queue
// is drained, received + dropped == nextSeq — any shortfall would be
// silent loss, which this accounting exists to rule out.
func (s *Subscription) DeliveryStats() (nextSeq, dropped uint64) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	return s.sub.nextSeq, s.sub.dropped
}

// Feedback reports a judgment for a delivered document.
func (s *Subscription) Feedback(doc int64, fd filter.Feedback) error {
	return s.b.Feedback(s.sub.id, doc, fd)
}

// ProfileSize returns the subscriber profile's current vector count,
// hydrating an evicted profile first (0 when the subscriber is gone or
// hydration fails).
func (s *Subscription) ProfileSize() int {
	n := 0
	_ = s.WithLearner(func(l *core.Profile) { n = l.ProfileSize() })
	return n
}

// WithLearner runs fn with the subscription's profile under the
// subscriber's lock, hydrating an evicted profile first; it errors when
// the subscriber is unsubscribed or hydration fails. For read-only
// introspection (the wire layer uses it to describe profiles). fn must
// not retain the profile or call back into the broker.
func (s *Subscription) WithLearner(fn func(*core.Profile)) error {
	return s.b.withLearner(s.sub, nil, func(l *core.Profile) error {
		fn(l)
		return nil
	})
}

// Score returns the profile's current score for a vector (diagnostics),
// hydrating an evicted profile first (0 on a gone subscriber or a failed
// hydration).
func (s *Subscription) Score(v vsm.Vector) float64 {
	sc := 0.0
	_ = s.WithLearner(func(l *core.Profile) { sc = l.Score(v) })
	return sc
}
