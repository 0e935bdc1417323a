package server

import (
	"path/filepath"
	"testing"
	"time"

	"mmprofile/internal/obs"
)

// TestConfigOptions checks what the server makes of its configuration: the
// zero value builds no tracer (the publish hot path stays untraced) and no
// durability; either trace field alone builds an enabled tracer that reaches
// the broker options; the durability and log fields translate as named (a bad
// log level or format is TestNewFailure's). That each flag lands in its field
// is cmd/mmserver's TestConfig*.
func TestConfigOptions(t *testing.T) {
	var zero Config
	if zero.brokerOptions(nil).Trace != nil {
		t.Error("tracing enabled by the zero config")
	}
	if st := zero.storeOptions(nil); st.Durable {
		t.Errorf("store options = %+v", st)
	}
	s := mustNew(t, zero, nil)
	if s.log.Enabled(obs.LevelDebug) || !s.log.Enabled(obs.LevelInfo) {
		t.Error("zero config's logger is not at info")
	}
	s.Stop()

	cfg := Config{TraceSample: 0.5, TraceSlow: 50 * time.Millisecond}
	tr := cfg.brokerOptions(nil).Trace
	if tr == nil || !tr.Enabled() {
		t.Fatal("trace fields did not enable tracing")
	}
	if snap := tr.Snapshot(); snap.SampleEvery != 2 || snap.SlowThresholdMS != 50 {
		t.Errorf("sample 0.5, slow 50ms → every %d, %vms", snap.SampleEvery, snap.SlowThresholdMS)
	}
	if (&Config{TraceSample: 1}).brokerOptions(nil).Trace == nil || (&Config{TraceSlow: time.Millisecond}).brokerOptions(nil).Trace == nil {
		t.Error("one trace field alone did not enable tracing")
	}

	if st := (&Config{Fsync: true}).storeOptions(nil); !st.Durable {
		t.Error("Fsync did not set Durable")
	}

	s = mustNew(t, Config{LogFormat: "json", LogLevel: "debug"}, nil)
	if !s.log.Enabled(obs.LevelDebug) {
		t.Error("LogLevel debug did not lower the threshold")
	}
	s.Stop()
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
