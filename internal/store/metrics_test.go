package store

import (
	"testing"

	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
)

func TestStoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := Open(t.TempDir(), Options{Durable: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubscribe("bob", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap["mm_store_appends_total"].(int64); got != 3 {
		t.Errorf("appends = %d, want 3", got)
	}
	// Each sequential durable append leads its own group-commit batch (3
	// fsyncs); the explicit Sync finds everything durable and issues none;
	// the checkpoint fsyncs the outgoing log once.
	if got := snap["mm_store_fsyncs_total"].(int64); got != 4 {
		t.Errorf("fsyncs = %d, want 4", got)
	}
	if got := snap["mm_store_group_commit_batches_total"].(int64); got != 3 {
		t.Errorf("group-commit batches = %d, want 3", got)
	}
	if got := snap["mm_store_group_commit_records_total"].(int64); got != 3 {
		t.Errorf("group-commit records = %d, want 3", got)
	}
	if got := snap["mm_store_checkpoints_total"].(int64); got != 1 {
		t.Errorf("checkpoints = %d, want 1", got)
	}
	if got := snap["mm_store_checkpoint_bytes"].(float64); got <= 0 {
		t.Errorf("checkpoint bytes = %v, want > 0", got)
	}
	// The checkpoint drained the dirty set.
	if got := snap["mm_store_dirty_profiles"].(float64); got != 0 {
		t.Errorf("dirty profiles gauge = %v, want 0", got)
	}
	for _, name := range []string{"mm_store_append_seconds", "mm_store_fsync_seconds", "mm_store_checkpoint_seconds"} {
		h := snap[name].(metrics.HistogramSnapshot)
		if h.Count == 0 {
			t.Errorf("%s has no observations", name)
		}
	}
}

// TestStoreMetricsOptional pins that a store without a registry records
// nothing and never panics (all instruments are nil no-ops).
func TestStoreMetricsOptional(t *testing.T) {
	s := openStore(t, t.TempDir())
	if err := s.AppendSubscribe("alice", "MM", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RestoreUser("alice"); err != nil {
		t.Fatal(err)
	}
}
