package store

import "mmprofile/internal/metrics"

// storeMetrics bundles the persistence instruments (DESIGN.md §8). All
// fields are nil-safe no-ops when the store was opened without a
// registry, so the hot append path pays nothing beyond a nil check.
type storeMetrics struct {
	appends     *metrics.Counter
	fsyncs      *metrics.Counter
	checkpoints *metrics.Counter
	tornTails   *metrics.Counter

	appendLat     *metrics.Histogram
	fsyncLat      *metrics.Histogram
	checkpointLat *metrics.Histogram

	checkpointBytes *metrics.Gauge

	// Group-commit instruments (DESIGN.md §10): how many records each
	// coalesced leader pass acknowledged, and how long durable appenders
	// waited for their covering fsync. records_total / fsyncs_total ≈ the
	// batch factor; the whole point of group commit is keeping it well
	// above 1.
	groupBatches   *metrics.Counter
	groupRecords   *metrics.Counter
	groupBatchRecs *metrics.Histogram
	groupWaitLat   *metrics.Histogram

	// Incremental-checkpoint instruments (DESIGN.md §14): dirty profiles
	// awaiting compaction, and single-user hydration replays.
	dirtyProfiles    *metrics.Gauge
	userRestores     *metrics.Counter
	restoreReadBytes *metrics.Counter
}

// RegisterMetrics registers the store's instrument family on reg and
// returns the handles. Registration is idempotent (the registry returns
// existing instruments for repeated names), so a server can pre-register
// the family at startup — making the mm_store_* series visible on
// /metrics even before any store exists — and a later Open with the same
// registry picks up the very same instruments.
func RegisterMetrics(reg *metrics.Registry) storeMetrics {
	return storeMetrics{
		appends: reg.Counter("mm_store_appends_total",
			"Records appended to the write-ahead log."),
		fsyncs: reg.Counter("mm_store_fsyncs_total",
			"fsync calls issued against the write-ahead log."),
		checkpoints: reg.Counter("mm_store_checkpoints_total",
			"Snapshot checkpoints written."),
		appendLat: reg.Histogram("mm_store_append_seconds",
			"Latency of one WAL append (framing, write, and the covering group-commit fsync when Durable)."),
		fsyncLat: reg.Histogram("mm_store_fsync_seconds",
			"Latency of one WAL fsync."),
		checkpointLat: reg.Histogram("mm_store_checkpoint_seconds",
			"Wall-clock duration of writing one snapshot checkpoint."),
		checkpointBytes: reg.Gauge("mm_store_checkpoint_bytes",
			"Payload size of the most recent snapshot checkpoint."),
		tornTails: reg.Counter("mm_store_torn_tails_total",
			"Torn WAL tails truncated during open (crash residue repaired)."),
		groupBatches: reg.Counter("mm_store_group_commit_batches_total",
			"Group-commit fsync batches acknowledged."),
		groupRecords: reg.Counter("mm_store_group_commit_records_total",
			"WAL records made durable through group-commit batches."),
		groupBatchRecs: reg.Histogram("mm_store_group_commit_batch_records",
			"Records acknowledged per group-commit fsync batch."),
		groupWaitLat: reg.Histogram("mm_store_group_commit_wait_seconds",
			"Time a durable append waited for its covering fsync."),
		dirtyProfiles: reg.Gauge("mm_store_dirty_profiles",
			"Distinct users with WAL events not yet compacted into a segment."),
		userRestores: reg.Counter("mm_store_user_restores_total",
			"Single-user hydration replays served from segment plus WAL."),
		restoreReadBytes: reg.Counter("mm_store_restore_read_bytes_total",
			"Bytes single-user hydration read from the segment and WAL (framing included)."),
	}
}
