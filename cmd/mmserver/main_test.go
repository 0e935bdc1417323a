package main

import (
	"cmp"
	"flag"
	"io"
	"slices"
	"testing"
	"time"

	"mmprofile/internal/metrics"
	"mmprofile/internal/server"
)

// parse runs the config's flag surface over args, as main does.
func parse(t *testing.T, args ...string) server.Config {
	t.Helper()
	fs := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	var cfg server.Config
	cfg.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigDefaults checks the zero-flag configuration: paper-default
// threshold, no tracing (the publish hot path stays untraced), no durability.
// What the server makes of each field is internal/server's TestConfigOptions.
func TestConfigDefaults(t *testing.T) {
	cfg := parse(t)
	if cfg.Threshold != 0.25 || cfg.Queue != 128 || cfg.Retention != 4096 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.TraceSample != 0 || cfg.TraceSlow != 0 {
		t.Errorf("tracing on without trace flags: %+v", cfg)
	}
	if cfg.Fsync {
		t.Errorf("durability on without its flags: %+v", cfg)
	}
}

// TestFlagSurface pins mmserver's exact flag set: every flag is a
// configuration to test, benchmark and document, so a new one has to edit
// this table and say which two existing workloads need different values.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "checkpoint", "dump-dir", "fsync", "http",
		"log-format", "log-level", "match-slo", "max-resident-profiles",
		"queue", "retain-content", "retention", "state",
		"threshold", "trace-sample", "trace-slow",
	}
	fs := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	new(server.Config).Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %d: %v\nwant %d: %v", len(got), got, len(want), want)
	}
}

// TestInstrumentSurface pins the exact (name, kind) list a server built
// with -state and tracing registers — store family, broker + index, wire
// server, runtime sampler, trace gauges.
// Every series is a thing to document, scrape and keep working: a new one
// edits this table; one that disappears fails here first. Kinds are read
// off the Snapshot value types, which Registry.Snapshot documents.
func TestInstrumentSurface(t *testing.T) {
	want := [][2]string{
		{"mm_feedback_ignored_total", "counter"},
		{"mm_index_blocks_skipped_total", "counter"},
		{"mm_index_compaction_seconds", "histogram"},
		{"mm_index_compactions_total", "counter"},
		{"mm_index_live_vectors", "gauge"},
		{"mm_index_postings_scanned_total", "counter"},
		{"mm_index_quantization_error", "histogram"},
		{"mm_index_rescores_total", "counter"},
		{"mm_index_terms_pruned_total", "counter"},
		{"mm_index_tombstone_ratio", "gauge"},
		{"mm_index_vectors_kept_total", "counter"},
		{"mm_index_vectors_restaged_total", "counter"},
		{"mm_intern_terms", "gauge"},
		{"mm_profile_resident_pairs", "gauge"},
		{"mm_profile_vectors", "gauge"},
		{"mm_pubsub_deliver_seconds", "histogram"},
		{"mm_pubsub_deliveries_total", "counter"},
		{"mm_pubsub_dropped_total", "counter"},
		{"mm_pubsub_feedback_seconds", "histogram"},
		{"mm_pubsub_feedbacks_total", "counter"},
		{"mm_pubsub_hydrate_seconds", "histogram"},
		{"mm_pubsub_hydrations_total", "counter"},
		{"mm_pubsub_match_seconds", "histogram"},
		{"mm_pubsub_profile_evictions_total", "counter"},
		{"mm_pubsub_publish_seconds", "histogram"},
		{"mm_pubsub_published_total", "counter"},
		{"mm_pubsub_queue_slots", "gauge"},
		{"mm_pubsub_resident_profiles", "gauge"},
		{"mm_pubsub_retention_evictions_total", "counter"},
		{"mm_pubsub_subscribers", "gauge"},
		{"mm_runtime_gc_cycles", "gauge"},
		{"mm_runtime_gc_pause_p99_seconds", "gauge"},
		{"mm_runtime_goroutines", "gauge"},
		{"mm_runtime_heap_allocs_objects", "gauge"},
		{"mm_runtime_heap_goal_bytes", "gauge"},
		{"mm_runtime_heap_live_bytes", "gauge"},
		{"mm_runtime_sched_latency_p99_seconds", "gauge"},
		{"mm_runtime_total_memory_bytes", "gauge"},
		{"mm_store_append_seconds", "histogram"},
		{"mm_store_appends_total", "counter"},
		{"mm_store_checkpoint_bytes", "gauge"},
		{"mm_store_checkpoint_seconds", "histogram"},
		{"mm_store_checkpoints_total", "counter"},
		{"mm_store_dirty_profiles", "gauge"},
		{"mm_store_fsync_seconds", "histogram"},
		{"mm_store_fsyncs_total", "counter"},
		{"mm_store_group_commit_batch_records", "histogram"},
		{"mm_store_group_commit_batches_total", "counter"},
		{"mm_store_group_commit_records_total", "counter"},
		{"mm_store_group_commit_wait_seconds", "histogram"},
		{"mm_store_restore_read_bytes_total", "counter"},
		{"mm_store_torn_tails_total", "counter"},
		{"mm_store_user_restores_total", "counter"},
		{"mm_text_term_cache_hits_total", "counter"},
		{"mm_text_term_cache_misses_total", "counter"},
		{"mm_trace_sampled", "gauge"},
		{"mm_trace_slow_captured", "gauge"},
		{"mm_vector_strength", "histogram"},
		{"mm_vectors_annihilated_total", "counter"},
		{"mm_vectors_created_total", "counter"},
		{"mm_vectors_deleted_total", "counter"},
		{"mm_vectors_incorporated_total", "counter"},
		{"mm_vectors_merged_total", "counter"},
		{"mm_wire_session_deliveries_total", "counter"},
		{"mm_wire_session_frames_total", "counter"},
		{"mm_wire_sessions", "gauge"},
		{"subscriber_deliveries", "topk"},
		{"subscriber_drops", "topk"},
		{"subscriber_hydrations", "topk"},
		{"term_postings_scanned", "topk"},
	}

	srv, err := server.New(parse(t, "-trace-sample", "1", "-state", t.TempDir()), server.Seams{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	var got [][2]string
	for name, v := range srv.Registry().Snapshot() {
		kind := "?"
		switch v.(type) {
		case int64:
			kind = "counter"
		case float64:
			kind = "gauge"
		case metrics.HistogramSnapshot:
			kind = "histogram"
		case metrics.TopSnapshot:
			kind = "topk"
		}
		got = append(got, [2]string{name, kind})
	}
	slices.SortFunc(got, func(a, b [2]string) int { return cmp.Compare(a[0], b[0]) })
	if !slices.Equal(got, want) {
		t.Errorf("instrument surface changed:\n got %d: %v\nwant %d: %v", len(got), got, len(want), want)
	}
}

// TestConfigTraceFlags checks -trace-sample / -trace-slow land in the
// configuration, each alone.
func TestConfigTraceFlags(t *testing.T) {
	cfg := parse(t, "-trace-sample", "0.5", "-trace-slow", "50ms")
	if cfg.TraceSample != 0.5 || cfg.TraceSlow != 50*time.Millisecond {
		t.Errorf("trace flags = %v %v", cfg.TraceSample, cfg.TraceSlow)
	}
	if cfg := parse(t, "-trace-sample", "1"); cfg.TraceSample != 1 || cfg.TraceSlow != 0 {
		t.Errorf("-trace-sample alone = %v %v", cfg.TraceSample, cfg.TraceSlow)
	}
	if cfg := parse(t, "-trace-slow", "1ms"); cfg.TraceSample != 0 || cfg.TraceSlow != time.Millisecond {
		t.Errorf("-trace-slow alone = %v %v", cfg.TraceSample, cfg.TraceSlow)
	}
}

// TestConfigLogFlags checks the -log-format / -log-level surface: text at
// info by default, explicit flags honored, and bad values refused by New
// before it opens anything instead of silently logging wrong.
func TestConfigLogFlags(t *testing.T) {
	cfg := parse(t)
	if cfg.LogFormat != "text" || cfg.LogLevel != "info" {
		t.Errorf("log defaults = %q %q", cfg.LogFormat, cfg.LogLevel)
	}
	cfg = parse(t, "-log-format", "json", "-log-level", "debug")
	if cfg.LogFormat != "json" || cfg.LogLevel != "debug" {
		t.Errorf("log flags = %q %q", cfg.LogFormat, cfg.LogLevel)
	}
	for _, bad := range [][]string{{"-log-level", "verbose"}, {"-log-format", "xml"}} {
		if _, err := server.New(parse(t, bad...), server.Seams{Log: io.Discard}); err == nil {
			t.Errorf("%v did not error", bad)
		}
	}
}

// TestConfigObsFlags pins the flight-recorder flag surface.
func TestConfigObsFlags(t *testing.T) {
	cfg := parse(t)
	if cfg.DumpDir != "" || cfg.MatchSLO != 0 {
		t.Errorf("obs defaults = %q %v", cfg.DumpDir, cfg.MatchSLO)
	}
	cfg = parse(t, "-dump-dir", "/tmp/bundles", "-match-slo", "25ms")
	if cfg.DumpDir != "/tmp/bundles" || cfg.MatchSLO != 25*time.Millisecond {
		t.Errorf("obs flags = %q %v", cfg.DumpDir, cfg.MatchSLO)
	}
}

// TestConfigDurabilityFlags pins the -fsync flag, the one durability knob.
func TestConfigDurabilityFlags(t *testing.T) {
	if cfg := parse(t, "-fsync"); !cfg.Fsync {
		t.Error("-fsync did not set Fsync")
	}
}
