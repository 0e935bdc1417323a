package server

import (
	"flag"
	"os"
	"path/filepath"
	"time"

	"mmprofile/internal/metrics"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/trace"
)

// Config is the server's whole configuration and mmserver's whole flag
// surface (TestFlagSurface): one field per flag. The zero value is an
// in-memory server with the broker's defaults.
type Config struct {
	Addr        string
	HTTPAddr    string
	StateDir    string
	Checkpoint  time.Duration
	Threshold   float64
	Queue       int
	Retention   int
	RetainBody  bool
	Fsync       bool
	MaxResident int
	TraceSample float64
	TraceSlow   time.Duration
	LogFormat   string
	LogLevel    string
	DumpDir     string
	MatchSLO    time.Duration
}

// Register binds every field to its flag on fs, with mmserver's defaults.
func (c *Config) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", ":7070", "listen address (host:port, or unix:/path for a Unix domain socket)")
	fs.StringVar(&c.HTTPAddr, "http", "", "optional HTTP status address (e.g. :8080)")
	fs.StringVar(&c.StateDir, "state", "", "directory for durable profiles (empty = in-memory only)")
	fs.DurationVar(&c.Checkpoint, "checkpoint", 5*time.Minute, "interval between incremental checkpoints when -state is set (0 = only at shutdown)")
	fs.Float64Var(&c.Threshold, "threshold", 0.25, "minimum profile/document similarity for delivery")
	fs.IntVar(&c.Queue, "queue", 128, "per-subscriber delivery buffer")
	fs.IntVar(&c.Retention, "retention", 4096, "recent documents kept for feedback")
	fs.BoolVar(&c.RetainBody, "retain-content", false, "keep raw page content for the retention window (enables fetch)")
	fs.BoolVar(&c.Fsync, "fsync", false, "durable journal: feedback is acked only once fsynced (group-committed)")
	fs.IntVar(&c.MaxResident, "max-resident-profiles", 0, "profiles kept in the heap; colder ones hydrate from -state on demand (0 = all resident; requires -state)")
	fs.Float64Var(&c.TraceSample, "trace-sample", 0, "fraction of requests to capture as traces, 0..1 (0 = off; see /tracez)")
	fs.DurationVar(&c.TraceSlow, "trace-slow", 0, "capture any request slower than this even when unsampled (0 = off)")
	fs.StringVar(&c.LogFormat, "log-format", "text", "log encoding: text or json")
	fs.StringVar(&c.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.StringVar(&c.DumpDir, "dump-dir", "", "flight-recorder bundle directory (default <state>/dumps, or the OS temp dir without -state)")
	fs.DurationVar(&c.MatchSLO, "match-slo", 0, "p99 match-latency SLO; sustained breach triggers a flight-recorder bundle (0 = off)")
}

// resolveDumpDir picks the flight-recorder directory: the explicit flag,
// else a dumps/ subdirectory of the state dir, else a stable path under
// the OS temp dir (so a stateless server still records crashes somewhere
// findable).
func resolveDumpDir(flagVal, stateDir string) string {
	switch {
	case flagVal != "":
		return flagVal
	case stateDir != "":
		return filepath.Join(stateDir, "dumps")
	default:
		return filepath.Join(os.TempDir(), "mmserver-dumps")
	}
}

// brokerOptions translates the flags into the broker configuration. With
// both trace flags off there is no tracer at all, which keeps the publish hot
// path entirely untraced.
func (c *Config) brokerOptions(reg *metrics.Registry) pubsub.Options {
	o := pubsub.Options{
		Threshold:     c.Threshold,
		QueueSize:     c.Queue,
		Retention:     c.Retention,
		RetainContent: c.RetainBody,
		Metrics:       reg,
	}
	if c.TraceSample > 0 || c.TraceSlow > 0 {
		o.Trace = trace.New(trace.Options{SampleRate: c.TraceSample, SlowThreshold: c.TraceSlow})
	}
	return o
}

// storeOptions translates the durability flag into the store configuration.
func (c *Config) storeOptions(reg *metrics.Registry) store.Options {
	return store.Options{Durable: c.Fsync, Metrics: reg}
}
