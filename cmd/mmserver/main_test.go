package main

import (
	"cmp"
	"flag"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/wire"
)

// parse runs the config's flag surface over args, as main does.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	fs := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	var cfg config
	cfg.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigDefaults checks the zero-flag configuration: no tracer (the
// publish hot path stays untraced), no durability, paper-default threshold.
func TestConfigDefaults(t *testing.T) {
	cfg := parse(t)
	if cfg.threshold != 0.25 || cfg.queue != 128 || cfg.retention != 4096 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.tracer() != nil {
		t.Error("tracing enabled without trace flags")
	}
	opts := cfg.brokerOptions(nil)
	if opts.Trace != nil {
		t.Error("broker options carry a tracer without trace flags")
	}
	st := cfg.storeOptions(nil)
	if st.Durable || st.SyncInterval != 0 {
		t.Errorf("store options = %+v", st)
	}
}

// TestFlagSurface pins mmserver's exact flag set: every flag is a
// configuration to test, benchmark and document, so a new one has to edit
// this table and say which two existing workloads need different values.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "checkpoint", "dump-dir",
		"evict-drop-rate", "evict-windows", "fsync", "http", "lanes",
		"log-format", "log-level", "match-slo", "max-resident-profiles",
		"pubsub-shards", "queue", "retain-content", "retention", "state",
		"sync-interval", "threshold", "trace-sample", "trace-slow",
	}
	fs := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	new(config).register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %d: %v\nwant %d: %v", len(got), got, len(want), want)
	}
}

// TestInstrumentSurface pins the exact (name, kind) list mmserver's wiring
// registers — store family, broker + index, store lanes, wire server,
// runtime sampler, trace gauges — in the order main makes those calls.
// Every series is a thing to document, scrape and keep working: a new one
// edits this table; one that disappears fails here first. Kinds are read
// off the Snapshot value types, which Registry.Snapshot documents.
func TestInstrumentSurface(t *testing.T) {
	want := [][2]string{
		{"lane_append_bytes", "topk"},
		{"lane_fsyncs", "topk"},
		{"mm_feedback_ignored_total", "counter"},
		{"mm_index_blocks_skipped_total", "counter"},
		{"mm_index_compaction_seconds", "histogram"},
		{"mm_index_compactions_total", "counter"},
		{"mm_index_live_vectors", "gauge"},
		{"mm_index_match_seconds", "histogram"},
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
		{"mm_pubsub_slow_evictions_total", "counter"},
		{"mm_pubsub_subscribers", "gauge"},
		{"mm_runtime_gc_cycles", "gauge"},
		{"mm_runtime_gc_pause_p99_seconds", "gauge"},
		{"mm_runtime_goroutines", "gauge"},
		{"mm_runtime_heap_goal_bytes", "gauge"},
		{"mm_runtime_heap_live_bytes", "gauge"},
		{"mm_runtime_sched_latency_p99_seconds", "gauge"},
		{"mm_runtime_total_memory_bytes", "gauge"},
		{"mm_store_append_seconds", "histogram"},
		{"mm_store_appends_total", "counter"},
		{"mm_store_checkpoint_bytes", "gauge"},
		{"mm_store_checkpoint_lanes_rewritten_total", "counter"},
		{"mm_store_checkpoint_lanes_skipped_total", "counter"},
		{"mm_store_checkpoint_seconds", "histogram"},
		{"mm_store_checkpoints_total", "counter"},
		{"mm_store_dirty_profiles", "gauge"},
		{"mm_store_fsync_seconds", "histogram"},
		{"mm_store_fsyncs_total", "counter"},
		{"mm_store_group_commit_batch_records", "histogram"},
		{"mm_store_group_commit_batches_total", "counter"},
		{"mm_store_group_commit_records_total", "counter"},
		{"mm_store_group_commit_wait_seconds", "histogram"},
		{"mm_store_lanes", "gauge"},
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
		{"subscriber_queue_full", "topk"},
		{"term_postings_scanned", "topk"},
	}

	cfg := parse(t, "-trace-sample", "1")
	reg := metrics.NewRegistry()
	store.RegisterMetrics(reg)
	st, err := store.Open(t.TempDir(), cfg.storeOptions(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	broker := pubsub.New(cfg.brokerOptions(reg))
	wire.NewServerLogger(broker, nil)
	sampler := obs.StartRuntimeSampler(reg, time.Hour, nil)
	defer sampler.Stop()
	registerTraceGauges(reg, broker.Tracer())

	var got [][2]string
	for name, v := range reg.Snapshot() {
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

// TestConfigTraceFlags checks -trace-sample / -trace-slow build an enabled
// tracer and wire it into the broker options.
func TestConfigTraceFlags(t *testing.T) {
	cfg := parse(t, "-trace-sample", "0.5", "-trace-slow", "50ms")
	tr := cfg.tracer()
	if tr == nil || !tr.Enabled() {
		t.Fatal("trace flags did not enable tracing")
	}
	snap := tr.Snapshot()
	if snap.SampleEvery != 2 {
		t.Errorf("sample 0.5 → every %d, want 2", snap.SampleEvery)
	}
	if snap.SlowThresholdMS != 50 {
		t.Errorf("slow threshold = %vms, want 50", snap.SlowThresholdMS)
	}
	if cfg.brokerOptions(nil).Trace == nil {
		t.Error("broker options did not receive the tracer")
	}

	// Each flag alone is sufficient.
	sampleOnly := parse(t, "-trace-sample", "1")
	if sampleOnly.tracer() == nil {
		t.Error("-trace-sample alone did not enable tracing")
	}
	slowOnly := parse(t, "-trace-slow", "1ms")
	if slowOnly.tracer() == nil {
		t.Error("-trace-slow alone did not enable tracing")
	}
}

// TestConfigLogFlags checks the -log-format / -log-level surface: defaults
// build a text logger at info, explicit flags are honored, and bad values
// error instead of silently logging wrong.
func TestConfigLogFlags(t *testing.T) {
	cfg := parse(t)
	if cfg.logFormat != "text" || cfg.logLevel != "info" {
		t.Errorf("log defaults = %q %q", cfg.logFormat, cfg.logLevel)
	}
	lg, err := cfg.logger(nil)
	if err != nil || lg == nil {
		t.Fatalf("default logger: %v", err)
	}
	if lg.Enabled(obs.LevelDebug) || !lg.Enabled(obs.LevelInfo) {
		t.Error("default logger is not at info level")
	}

	cfg = parse(t, "-log-format", "json", "-log-level", "debug")
	lg, err = cfg.logger(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Enabled(obs.LevelDebug) {
		t.Error("-log-level debug did not lower the threshold")
	}

	badLevel := parse(t, "-log-level", "verbose")
	if _, err := badLevel.logger(nil); err == nil {
		t.Error("bad -log-level did not error")
	}
	badFormat := parse(t, "-log-format", "xml")
	if _, err := badFormat.logger(nil); err == nil {
		t.Error("bad -log-format did not error")
	}
}

// TestConfigObsFlags pins the flight-recorder flag surface.
func TestConfigObsFlags(t *testing.T) {
	cfg := parse(t)
	if cfg.dumpDir != "" || cfg.matchSLO != 0 {
		t.Errorf("obs defaults = %q %v", cfg.dumpDir, cfg.matchSLO)
	}
	cfg = parse(t, "-dump-dir", "/tmp/bundles", "-match-slo", "25ms")
	if cfg.dumpDir != "/tmp/bundles" || cfg.matchSLO != 25*time.Millisecond {
		t.Errorf("obs flags = %q %v", cfg.dumpDir, cfg.matchSLO)
	}
}

// TestResolveDumpDir checks the dump-directory fallback chain: explicit
// flag beats the state dir, which beats the OS temp dir.
func TestResolveDumpDir(t *testing.T) {
	if got := resolveDumpDir("/explicit", "/state"); got != "/explicit" {
		t.Errorf("explicit flag → %q", got)
	}
	if got := resolveDumpDir("", "/state"); got != filepath.Join("/state", "dumps") {
		t.Errorf("state fallback → %q", got)
	}
	got := resolveDumpDir("", "")
	if got == "" || filepath.Base(got) != "mmserver-dumps" {
		t.Errorf("temp fallback → %q", got)
	}
}

// TestConfigDurabilityFlags pins the -fsync / -sync-interval translation
// the trace flags ride alongside.
func TestConfigDurabilityFlags(t *testing.T) {
	cfg := parse(t, "-fsync")
	if st := cfg.storeOptions(nil); !st.Durable {
		t.Error("-fsync did not set Durable")
	}
	cfg = parse(t, "-sync-interval", "2s")
	if st := cfg.storeOptions(nil); st.Durable || st.SyncInterval != 2*time.Second {
		t.Errorf("-sync-interval 2s → %+v", st)
	}
}
