package index

import (
	"testing"

	"mmprofile/internal/metrics"
	"mmprofile/internal/vsm"
)

func TestInstrument(t *testing.T) {
	reg := metrics.NewRegistry()
	ix := New()
	ix.Instrument(reg)

	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0)})
	ix.SetUser("bob", []vsm.Vector{vec("dog", 1.0)})
	if m := ix.Match(vec("cat", 1.0), 0.3); len(m) != 1 {
		t.Fatalf("matches = %v", m)
	}
	ix.Match(vec("dog", 1.0), 0.3)

	snap := reg.Snapshot()
	if got := snap["mm_index_live_vectors"].(float64); got != 2 {
		t.Errorf("live vectors = %v, want 2", got)
	}
	if got := snap["mm_index_tombstone_ratio"].(float64); got != 0 {
		t.Errorf("tombstone ratio = %v, want 0 before any removal", got)
	}

	// Removing a user tombstones its postings; the ratio must reflect that
	// until Compact sweeps them and records the compaction.
	ix.RemoveUser("alice")
	if got := reg.Snapshot()["mm_index_tombstone_ratio"].(float64); got <= 0 {
		t.Errorf("tombstone ratio = %v, want > 0 after RemoveUser", got)
	}
	ix.Compact()
	snap = reg.Snapshot()
	if got := snap["mm_index_tombstone_ratio"].(float64); got != 0 {
		t.Errorf("tombstone ratio = %v, want 0 after Compact", got)
	}
	if got := snap["mm_index_compactions_total"].(int64); got == 0 {
		t.Error("Compact did not record any compactions")
	}
	if h := snap["mm_index_compaction_seconds"].(metrics.HistogramSnapshot); h.Count == 0 {
		t.Error("compaction duration histogram empty")
	}
	if got := snap["mm_index_live_vectors"].(float64); got != 1 {
		t.Errorf("live vectors = %v, want 1 after RemoveUser", got)
	}
}

// TestCompactSkipsCleanSpace pins that compaction is a strict no-op for a
// posting space without tombstones: after a removal, Compact() must record
// exactly one compaction — and a second Compact(), with nothing left to
// sweep, must record none.
func TestCompactSkipsCleanSpace(t *testing.T) {
	reg := metrics.NewRegistry()
	ix := New()
	ix.Instrument(reg)

	keeper := make([]vsm.Vector, 8)
	for i := range keeper {
		keeper[i] = vec("kept-term", 1.0)
	}
	ix.SetUser("keeper", keeper)
	ix.SetUser("victim", []vsm.Vector{vec("doomed-term", 1.0)})
	ix.SetUser("victim", nil)

	ix.Compact()
	if got := reg.Snapshot()["mm_index_compactions_total"].(int64); got != 1 {
		t.Errorf("compactions after one removal = %d, want 1", got)
	}
	ix.Compact()
	if got := reg.Snapshot()["mm_index_compactions_total"].(int64); got != 1 {
		t.Errorf("compactions after clean re-run = %d, want still 1", got)
	}
	if h := reg.Snapshot()["mm_index_compaction_seconds"].(metrics.HistogramSnapshot); h.Count != 1 {
		t.Errorf("compaction durations = %d, want 1", h.Count)
	}
}

// TestUninstrumentedIndexRecordsNothing pins the zero-cost default: an
// index never handed a registry works identically (broker benchmarks rely
// on the nil check being the only overhead).
func TestUninstrumentedIndexRecordsNothing(t *testing.T) {
	ix := New()
	ix.SetUser("alice", []vsm.Vector{vec("cat", 1.0)})
	if m := ix.Match(vec("cat", 1.0), 0.3); len(m) != 1 {
		t.Fatalf("matches = %v", m)
	}
	ix.RemoveUser("alice")
	ix.Compact()
}
