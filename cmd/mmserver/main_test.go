package main

import (
	"flag"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mmprofile/internal/obs"
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
		"addr", "checkpoint", "checkpoint-dirty", "dump-dir",
		"evict-drop-rate", "evict-windows", "fsync", "http", "lanes",
		"log-format", "log-level", "match-slo", "max-resident-profiles",
		"pubsub-shards", "queue", "retain-content", "retention", "state",
		"sync-interval", "threshold", "top-capacity", "trace-sample",
		"trace-slow",
	}
	fs := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	new(config).register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %d: %v\nwant %d: %v", len(got), got, len(want), want)
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
