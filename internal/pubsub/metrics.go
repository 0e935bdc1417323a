package pubsub

import "mmprofile/internal/metrics"

// brokerMetrics bundles every instrument the broker records into
// (DESIGN.md §8). The dissemination counters double as the backing store
// for Stats(), so the legacy Counters snapshot and the exposition
// endpoints can never disagree.
type brokerMetrics struct {
	reg *metrics.Registry

	// Dissemination counters.
	published  *metrics.Counter
	deliveries *metrics.Counter
	dropped    *metrics.Counter
	feedbacks  *metrics.Counter
	evictions  *metrics.Counter
	queueSlots *metrics.Gauge

	// Hot-path latencies. publishLat covers the whole publishRecord,
	// matchLat the vectorized-document → matches interval, deliverLat the
	// fan-out loop; all three come from the same three clock reads.
	publishLat  *metrics.Histogram
	matchLat    *metrics.Histogram
	deliverLat  *metrics.Histogram
	feedbackLat *metrics.Histogram

	// Adaptation-event telemetry: the paper's §3.3 profile dynamics
	// (create / incorporate / merge / strength-decay delete) aggregated
	// across all subscribers, so an operator can watch interest shift
	// happening on a live broker.
	vecCreated      *metrics.Counter
	vecIncorporated *metrics.Counter
	vecMerged       *metrics.Counter
	vecDeleted      *metrics.Counter
	vecAnnihilated  *metrics.Counter
	fbIgnored       *metrics.Counter
	strength        *metrics.Histogram
	profileVectors  *metrics.Gauge
	residentPairs   *metrics.Gauge

	// Residency telemetry (lazy hydration, hydrate.go): how many profiles
	// are in-heap right now, and the evict/hydrate churn the
	// MaxResident bound is causing.
	residentProfiles *metrics.Gauge
	hydrations       *metrics.Counter
	profileEvictions *metrics.Counter
	hydrateLat       *metrics.Histogram

	// Hot-key attribution: per-subscriber top-k dimensions answering "who
	// is receiving / dropping / overflowing / hydrating the most".
	topDeliveries *metrics.Sketch[string]
	topDrops      *metrics.Sketch[string]
	topQueueFull  *metrics.Sketch[string]
	topHydrations *metrics.Sketch[string]
}

func newBrokerMetrics(reg *metrics.Registry) brokerMetrics {
	topk := func(name, help string) *metrics.Sketch[string] {
		return metrics.TopK[string](reg, name, help, metrics.DimensionCapacity, metrics.FormatString)
	}
	return brokerMetrics{
		reg: reg,
		published: reg.Counter("mm_pubsub_published_total",
			"Documents published into the broker."),
		deliveries: reg.Counter("mm_pubsub_deliveries_total",
			"Deliveries enqueued to subscriber queues."),
		dropped: reg.Counter("mm_pubsub_dropped_total",
			"Deliveries dropped because a subscriber queue overflowed (oldest-first)."),
		feedbacks: reg.Counter("mm_pubsub_feedbacks_total",
			"Relevance judgments applied to subscriber profiles."),
		evictions: reg.Counter("mm_pubsub_retention_evictions_total",
			"Documents evicted from the retention ring to admit newer ones."),
		queueSlots: reg.Gauge("mm_pubsub_queue_slots",
			"Delivery slots allocated across all subscriber queues: a queue grows with the bursts it has held and never shrinks."),
		publishLat: reg.Histogram("mm_pubsub_publish_seconds",
			"End-to-end latency of one publish: retention bookkeeping, index match, and delivery fan-out."),
		matchLat: reg.Histogram("mm_pubsub_match_seconds",
			"Latency of matching one published document against all subscriber profiles."),
		deliverLat: reg.Histogram("mm_pubsub_deliver_seconds",
			"Latency of fanning one document's matches out to subscriber queues."),
		feedbackLat: reg.Histogram("mm_pubsub_feedback_seconds",
			"Latency of one feedback step: journaling, profile update, and reindexing."),
		vecCreated: reg.Counter("mm_vectors_created_total",
			"Profile vectors created by relevant feedback outside every similarity circle (paper 3.2)."),
		vecIncorporated: reg.Counter("mm_vectors_incorporated_total",
			"Documents folded into an existing profile vector (paper 3.2)."),
		vecMerged: reg.Counter("mm_vectors_merged_total",
			"Profile-vector merge operations (paper 3.3)."),
		vecDeleted: reg.Counter("mm_vectors_deleted_total",
			"Profile vectors removed by strength decay (paper 3.4)."),
		vecAnnihilated: reg.Counter("mm_vectors_annihilated_total",
			"Profile vectors removed because negative feedback zeroed them."),
		fbIgnored: reg.Counter("mm_feedback_ignored_total",
			"Judgments that had no structural effect on a profile."),
		strength: reg.Histogram("mm_vector_strength",
			"Distribution of profile-vector strengths, sampled from the judged profile after every feedback step."),
		profileVectors: reg.Gauge("mm_profile_vectors",
			"Profile vectors currently held across all resident subscribers."),
		residentPairs: reg.Gauge("mm_profile_resident_pairs",
			"(vector, term) pairs held by resident profiles, the unit server memory is linear in: mm_runtime_heap_live_bytes over this is the live bytes one pair costs."),
		residentProfiles: reg.Gauge("mm_pubsub_resident_profiles",
			"Subscriber profiles currently resident in the heap (subscribers minus evicted)."),
		hydrations: reg.Counter("mm_pubsub_hydrations_total",
			"Evicted profiles rebuilt from the store on access (lazy hydration)."),
		profileEvictions: reg.Counter("mm_pubsub_profile_evictions_total",
			"Resident profiles dropped from the heap by the MaxResident LRU bound."),
		hydrateLat: reg.Histogram("mm_pubsub_hydrate_seconds",
			"Latency of rebuilding one evicted profile from its checkpoint segment and WAL replay."),
		topDeliveries: topk("subscriber_deliveries",
			"Deliveries enqueued, by subscriber."),
		topDrops: topk("subscriber_drops",
			"Deliveries discarded by the drop-oldest policy, by subscriber."),
		topQueueFull: topk("subscriber_queue_full",
			"Enqueues that found the queue full (each forced at least one drop), by subscriber."),
		topHydrations: topk("subscriber_hydrations",
			"Profile rebuilds from the store after residency eviction, by subscriber."),
	}
}

// recordAdaptation diffs a profile's operation tallies against the last
// ones seen for the subscriber and publishes the deltas, then samples the
// current strength distribution. Caller holds the subscriber lock. The
// baseline is captured at Subscribe, so only adaptation performed under
// this broker is counted (a profile's pre-subscribe history — keyword
// seeds, journal replay — is not).
func (b *Broker) recordAdaptation(s *subscriber) {
	c, last := s.learner.Counts(), s.lastOps
	s.lastOps = c
	b.m.vecCreated.Add(int64(c.Created - last.Created))
	b.m.vecIncorporated.Add(int64(c.Incorporated - last.Incorporated))
	b.m.vecMerged.Add(int64(c.Merged - last.Merged))
	b.m.vecDeleted.Add(int64(c.Deleted - last.Deleted))
	b.m.vecAnnihilated.Add(int64(c.Annihilated - last.Annihilated))
	b.m.fbIgnored.Add(int64(c.Ignored - last.Ignored))
	s.learner.ForEachStrength(b.m.strength.Observe)
	size := s.learner.ProfileSize()
	if d := size - s.lastSize; d != 0 {
		s.lastSize = size
		b.m.profileVectors.Add(float64(d))
	}
}

// Metrics returns the broker's registry: the one passed via
// Options.Metrics, or the private registry the broker created. Embedding
// users can expose it (wire.NewStatusHandler does) or read it directly.
func (b *Broker) Metrics() *metrics.Registry { return b.m.reg }
