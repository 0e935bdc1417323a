// Command mmserver runs the push-based dissemination engine as a TCP
// daemon speaking the newline-delimited JSON protocol of internal/wire.
// Subscribers register adaptive profiles (MM by default), publishers push
// raw pages, and every relevance judgment reshapes the subscriber's profile
// online.
//
// With -state, profiles are durable: subscriptions and judgments are
// journaled to a sharded write-ahead log (-lanes), compacted by periodic
// incremental checkpoints (only lanes with changed profiles rewrite their
// segment), and restored on restart. With
// -max-resident-profiles, restored profiles boot as evicted stubs and
// hydrate from the store on first use, and the broker keeps at most that
// many profiles in the heap (DESIGN.md §14).
//
// Diagnostics (DESIGN.md §13): structured logs (-log-format, -log-level),
// liveness on /healthz and per-component readiness on /readyz (flipped to
// draining before the listener closes on SIGINT/SIGTERM), runtime
// telemetry as mm_runtime_* gauges, and a flight recorder that writes a
// diagnostic bundle under -dump-dir on panic, SIGQUIT, a sustained
// match-latency burn over -match-slo, or POST /debugz/dump.
//
// Attribution and windows (DESIGN.md §8): hot-key sketches answer "who
// is hot" per subscriber/term/lane on /topz, and the registry's ring of
// per-second samples serves windowed 1s/10s/60s rates on /tsz. The
// -match-slo trigger is a multi-window burn rate over that ring, and
// -evict-drop-rate uses the drops dimension to close push sessions whose
// windowed drop rate stays pathological for -evict-windows consecutive
// ticks.
//
// Usage:
//
//	mmserver [-addr :7070 | -addr unix:/path.sock] [-threshold 0.25]
//	         [-queue 128] [-retention 4096]
//	         [-state DIR] [-checkpoint 5m] [-lanes 4]
//	         [-max-resident-profiles 0] [-fsync] [-sync-interval 2s]
//	         [-pubsub-shards N] [-trace-sample 0.01] [-trace-slow 50ms]
//	         [-log-format text|json] [-log-level info] [-dump-dir DIR]
//	         [-match-slo 0] [-evict-drop-rate 0] [-evict-windows 3]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"mmprofile/internal/filter"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/trace"
	"mmprofile/internal/wire"
)

// config is mmserver's whole flag surface. Split from main so the
// flag → options translation and the flag set itself (TestFlagSurface)
// are unit-testable.
type config struct {
	addr        string
	httpAddr    string
	stateDir    string
	checkpoint  time.Duration
	threshold   float64
	queue       int
	retention   int
	retainBody  bool
	fsync       bool
	syncEvery   time.Duration
	lanes       int
	maxResident int
	shards      int
	traceSample float64
	traceSlow   time.Duration
	logFormat   string
	logLevel    string
	dumpDir     string
	matchSLO    time.Duration
	evictRate   float64
	evictWins   int
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":7070", "listen address (host:port, or unix:/path for a Unix domain socket)")
	fs.StringVar(&c.httpAddr, "http", "", "optional HTTP status address (e.g. :8080)")
	fs.StringVar(&c.stateDir, "state", "", "directory for durable profiles (empty = in-memory only)")
	fs.DurationVar(&c.checkpoint, "checkpoint", 5*time.Minute, "interval between incremental checkpoints when -state is set (0 = only at shutdown)")
	fs.Float64Var(&c.threshold, "threshold", 0.25, "minimum profile/document similarity for delivery")
	fs.IntVar(&c.queue, "queue", 128, "per-subscriber delivery buffer")
	fs.IntVar(&c.retention, "retention", 4096, "recent documents kept for feedback")
	fs.BoolVar(&c.retainBody, "retain-content", false, "keep raw page content for the retention window (enables fetch)")
	fs.BoolVar(&c.fsync, "fsync", false, "durable journal: feedback is acked only once fsynced (group-committed)")
	fs.DurationVar(&c.syncEvery, "sync-interval", 0, "without -fsync: background journal fsync interval (0 = OS-flushed only)")
	fs.IntVar(&c.lanes, "lanes", 0, "WAL lanes the journal is sharded into by user (0 = store default; pinned by the manifest on reopen)")
	fs.IntVar(&c.maxResident, "max-resident-profiles", 0, "profiles kept in the heap; colder ones hydrate from -state on demand (0 = all resident; requires -state)")
	fs.IntVar(&c.shards, "pubsub-shards", 0, "suggested shard count for the broker's registry/docstore layers (0 = GOMAXPROCS, rounded to a power of two)")
	fs.Float64Var(&c.traceSample, "trace-sample", 0, "fraction of requests to capture as traces, 0..1 (0 = off; see /tracez)")
	fs.DurationVar(&c.traceSlow, "trace-slow", 0, "capture any request slower than this even when unsampled (0 = off)")
	fs.StringVar(&c.logFormat, "log-format", "text", "log encoding: text or json")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.StringVar(&c.dumpDir, "dump-dir", "", "flight-recorder bundle directory (default <state>/dumps, or the OS temp dir without -state)")
	fs.DurationVar(&c.matchSLO, "match-slo", 0, "p99 match-latency SLO; sustained breach triggers a flight-recorder bundle (0 = off)")
	fs.Float64Var(&c.evictRate, "evict-drop-rate", 0, "drops/second per subscriber that, sustained, closes its push sessions (0 = off)")
	fs.IntVar(&c.evictWins, "evict-windows", 3, "consecutive 1s windows over -evict-drop-rate before a session is evicted")
}

// tracer builds the request tracer from the trace flags; nil when both are
// off, which keeps the publish hot path entirely untraced.
func (c *config) tracer() *trace.Tracer {
	if c.traceSample <= 0 && c.traceSlow <= 0 {
		return nil
	}
	return trace.New(trace.Options{SampleRate: c.traceSample, SlowThreshold: c.traceSlow})
}

// logger builds the process logger from the log flags, tapped into ring
// for the flight recorder.
func (c *config) logger(ring *obs.EventRing) (*obs.Logger, error) {
	level, err := obs.ParseLevel(c.logLevel)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(obs.LogOptions{Format: c.logFormat, Level: level, Ring: ring})
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

// brokerOptions translates the flags into the broker configuration.
func (c *config) brokerOptions(reg *metrics.Registry) pubsub.Options {
	return pubsub.Options{
		Threshold:     c.threshold,
		QueueSize:     c.queue,
		Retention:     c.retention,
		RetainContent: c.retainBody,
		Shards:        c.shards,
		Metrics:       reg,
		Trace:         c.tracer(),
	}
}

// storeOptions translates the durability flags into the store configuration.
func (c *config) storeOptions(reg *metrics.Registry) store.Options {
	return store.Options{Durable: c.fsync, SyncInterval: c.syncEvery, Lanes: c.lanes, Metrics: reg}
}

// heartbeatEvery is how often the pipeline probe beats the health model;
// heartbeatMaxAge is the staleness bound /readyz degrades at. The gap
// tolerates scheduler hiccups without flapping.
// samplerEvery doubles as the registry's ring tick: one row per second,
// so its 120 rows answer /tsz's 1s/10s/60s spans with a minute of slack
// for series plots. sloShort/sloLong are the burn-rate windows the
// -match-slo trigger evaluates over that ring.
const (
	heartbeatEvery  = time.Second
	heartbeatMaxAge = 5 * time.Second
	samplerEvery    = time.Second
	sloCooldown     = time.Minute
	sloShort        = 10 * time.Second
	sloLong         = 60 * time.Second
	sloObjective    = 0.99
)

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()

	ring := obs.NewEventRing(0)
	logger, err := cfg.logger(ring)
	if err != nil {
		fatal(err)
	}

	// One registry for the whole process: the broker, the index, the store,
	// the wire server and the runtime sampler all record into it — counters,
	// histograms and hot-key dimensions alike — the sampler ticks its ring,
	// and the HTTP endpoints and the flight recorder read it. The mm_store_*
	// family is registered up front so /metrics carries every family even
	// when the server runs without -state.
	reg := metrics.NewRegistry()
	store.RegisterMetrics(reg)

	opts := cfg.brokerOptions(reg)
	opts.Log = logger

	var st *store.Store
	if cfg.stateDir != "" {
		st, err = store.Open(cfg.stateDir, cfg.storeOptions(reg))
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		opts.Journal = st
		opts.Hydrator = st
		opts.MaxResident = cfg.maxResident
	} else if cfg.maxResident > 0 {
		fatal(errors.New("-max-resident-profiles requires -state (evicted profiles hydrate from the store)"))
	}

	broker := pubsub.New(opts)

	// Readiness model: the server flips from starting to ready once the
	// listener is bound; the store reports its sticky failure state; the
	// index and publish pipeline prove liveness via heartbeats (a wedged
	// layer blocks the probe, the beat goes stale, /readyz degrades — the
	// handler itself never touches broker locks).
	health := obs.NewHealth()
	health.Set("server", obs.StatusNotReady, "starting")
	if st != nil {
		health.RegisterCheck("store_wal", st.Health)
	} else {
		health.Set("store_wal", obs.StatusReady, "in-memory (no -state)")
	}
	health.RegisterHeartbeat("index", heartbeatMaxAge)
	health.RegisterHeartbeat("publish_loop", heartbeatMaxAge)
	stopBeats := make(chan struct{})
	go func() {
		t := time.NewTicker(heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stopBeats:
				return
			case <-t.C:
				// One read-only probe covers both: it ends in the index's
				// locks, and a wedge anywhere stalls this goroutine.
				broker.PingPipeline()
				health.Beat("publish_loop")
				health.Beat("index")
			}
		}
	}()

	// Flight recorder: panic (via the deferred RecoverRepanic here and in
	// every wire connection handler), SIGQUIT, the match-SLO burn trigger
	// below, and POST /debugz/dump all write bundles to dumpDir.
	dumpDir := resolveDumpDir(cfg.dumpDir, cfg.stateDir)
	src := obs.BundleSources{Metrics: reg, Tracer: broker.Tracer(), Health: health}
	if st != nil {
		src.WALInfo = func() (any, error) { return st.WALInfo() }
	}
	rec := obs.NewRecorder(dumpDir, ring, src)
	defer rec.RecoverRepanic()

	srv := wire.NewServerLogger(broker, logger)
	srv.SetRecorder(rec)

	// SLO trigger: a multi-window burn rate over the ring — the 10s window
	// proves the breach is current, the 60s window proves it is sustained,
	// and a tick with no fresh match samples cannot breach (ShortCount is
	// zero).
	sloRule := metrics.BurnRule{
		Hist:      "mm_pubsub_match_seconds",
		Limit:     cfg.matchSLO.Seconds(),
		Objective: sloObjective,
		Short:     sloShort,
		Long:      sloLong,
		Factor:    1,
	}
	var evictor *dropEvictor
	if cfg.evictRate > 0 {
		evictor = newDropEvictor(cfg.evictRate, cfg.evictWins, srv.KickSession)
	}
	onTick := func(obs.RuntimeStats) {
		now := time.Now()
		reg.Tick(now)
		if evictor != nil {
			drops, _ := reg.Top("subscriber_drops", evictScanK) // the broker always registers it
			evictor.tick(now, drops)
		}
		if cfg.matchSLO <= 0 {
			return
		}
		burn := reg.Burn(sloRule)
		if !burn.Breached {
			return
		}
		path, skipped, err := rec.DumpCooldown("match_slo", sloCooldown)
		switch {
		case err != nil:
			logger.Error("mmserver: match-slo dump failed", slog.String("err", err.Error()))
		case !skipped:
			logger.Warn("mmserver: match SLO burn-rate breach, bundle written",
				slog.Float64("short_burn", burn.ShortBurn),
				slog.Float64("long_burn", burn.LongBurn),
				slog.Float64("slo_seconds", cfg.matchSLO.Seconds()),
				slog.String("bundle", path))
		}
	}
	sampler := obs.StartRuntimeSampler(reg, samplerEvery, onTick)
	defer sampler.Stop()
	registerTraceGauges(reg, broker.Tracer())

	if st != nil {
		if err := restore(st, broker, logger, cfg.maxResident > 0); err != nil {
			fatal(err)
		}
	}

	lis, err := listen(cfg.addr)
	if err != nil {
		fatal(err)
	}
	lay := broker.Layout()
	logger.Info("mmserver: listening",
		slog.String("addr", lis.Addr().String()),
		slog.Float64("threshold", cfg.threshold),
		slog.String("state", cfg.stateDir),
		slog.String("dump_dir", dumpDir),
		slog.Int("registry_shards", lay.RegistryShards),
		slog.Int("doc_shards", lay.DocShards),
		slog.Int("stats_stripes", lay.StatsStripes),
		slog.Int("index_shards", lay.IndexShards))
	if broker.Tracer() != nil {
		logger.Info("mmserver: tracing on — /tracez on the -http listener",
			slog.Float64("sample", cfg.traceSample),
			slog.String("slow", cfg.traceSlow.String()))
	}
	health.Set("server", obs.StatusReady, "")

	if cfg.httpAddr != "" {
		httpLis, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("mmserver: status pages", slog.String("url", "http://"+httpLis.Addr().String()+"/"))
		handler := wire.NewStatusHandler(broker, wire.StatusOptions{Health: health, Recorder: rec})
		go func() {
			if err := http.Serve(httpLis, handler); err != nil {
				logger.Warn("mmserver: http", slog.String("err", err.Error()))
			}
		}()
	}

	stopCheckpoints := make(chan struct{})
	if st != nil && cfg.checkpoint > 0 {
		go func() {
			t := time.NewTicker(cfg.checkpoint)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := runCheckpoint(st, broker, logger); err != nil {
						logger.Error("mmserver: checkpoint", slog.String("err", err.Error()))
					}
				case <-stopCheckpoints:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	go func() {
		for s := range sig {
			if s == syscall.SIGQUIT {
				// Non-destructive: dump and keep serving, like the
				// runtime's own SIGQUIT but without dying.
				path, err := rec.Dump("sigquit")
				if err != nil {
					logger.Error("mmserver: sigquit dump failed", slog.String("err", err.Error()))
				} else {
					logger.Info("mmserver: sigquit bundle written", slog.String("bundle", path))
				}
				continue
			}
			// Graceful drain. Readiness flips FIRST: load balancers
			// watching /readyz stop routing while the flush below runs
			// and in-flight requests finish. /healthz stays green — the
			// process is alive and must not be restarted mid-drain.
			health.StartDrain()
			logger.Info("mmserver: shutting down", slog.String("signal", s.String()))
			close(stopCheckpoints)
			close(stopBeats)
			if st != nil {
				// Barrier first: anything journaled but not yet fsynced
				// (the -sync-interval window) becomes durable even if the
				// final checkpoint below fails.
				if err := broker.SyncJournal(); err != nil {
					logger.Error("mmserver: journal sync", slog.String("err", err.Error()))
				}
				// A clean shutdown leaves the shortest possible replay.
				if err := runCheckpoint(st, broker, logger); err != nil {
					logger.Error("mmserver: final checkpoint", slog.String("err", err.Error()))
				}
			}
			srv.Close()
			return
		}
	}()

	if err := srv.Serve(lis); err != nil && !errors.Is(err, net.ErrClosed) {
		logger.Error("mmserver: serve", slog.String("err", err.Error()))
	}
}

// registerTraceGauges exposes the tracer's capture tallies; a nil tracer
// (tracing off) registers nothing.
func registerTraceGauges(reg *metrics.Registry, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	reg.GaugeFunc("mm_trace_sampled",
		"Root spans captured by head sampling or remote join.",
		func() float64 { s, _ := tr.Counts(); return float64(s) })
	reg.GaugeFunc("mm_trace_slow_captured",
		"Traces retained for meeting the slow threshold.",
		func() float64 { _, s := tr.Counts(); return float64(s) })
}

// listen binds the wire listener: "unix:<path>" binds a Unix domain
// socket — removing a stale socket file left by a previous run first —
// and anything else is a TCP address. Unix sockets skip the ephemeral-port
// budget entirely, which is what the c10k-and-up session load runs need.
func listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// restore rebuilds subscriptions from the lane segments + journal and
// registers them with the broker, which is all the wire server needs to
// address them. Registration never re-journals (SubscribeRestored): the
// store already holds each profile. Eagerly, every learner is replayed into
// the heap at boot; lazily (with -max-resident-profiles), each user becomes
// an evicted stub that hydrates from the store on first use — the users
// come from the store's offset index, so boot reads each segment once
// through a fixed buffer and holds O(subscribers) index entries, never the
// state. Boot compacts nothing: a recovered WAL tail stays dirty in the
// store (its offset index is its dirty set) until the first periodic or
// shutdown checkpoint rewrites those lanes, and until then a hydration
// reads its user's own tail records and no one else's.
func restore(st *store.Store, broker *pubsub.Broker, logger *obs.Logger, lazy bool) error {
	var users []string
	var learners map[string]filter.Learner // stays nil when lazy: every user boots as a stub
	if lazy {
		var err error
		if users, err = st.RestoredUsers(); err != nil {
			return err
		}
	} else {
		profiles, events, err := st.Load()
		if err != nil {
			return err
		}
		if learners, err = store.Restore(profiles, events); err != nil {
			return err
		}
		for u := range learners {
			users = append(users, u)
		}
		sort.Strings(users)
	}
	for _, user := range users {
		if _, err := broker.SubscribeRestored(user, learners[user]); err != nil {
			return fmt.Errorf("restoring %q: %w", user, err)
		}
	}
	if len(users) > 0 {
		logger.Info("mmserver: restored subscribers",
			slog.Int("subscribers", len(users)),
			slog.Bool("lazy", lazy))
	}
	return nil
}

// runCheckpoint runs one incremental checkpoint: the journal's durability
// barrier first (so the relaxed -sync-interval window never spans a
// checkpoint), then a segment rewrite of every lane the WAL has touched.
func runCheckpoint(st *store.Store, broker *pubsub.Broker, logger *obs.Logger) error {
	if err := broker.SyncJournal(); err != nil {
		return err
	}
	stats, err := st.Checkpoint(1)
	if err != nil {
		return err
	}
	logger.Debug("mmserver: checkpoint",
		slog.Int("lanes", stats.Lanes),
		slog.Int("rewritten", stats.Rewritten),
		slog.Int("skipped", stats.Skipped),
		slog.Int("clean", stats.Clean),
		slog.Int("profiles", stats.Profiles),
		slog.Int64("bytes", stats.Bytes))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmserver:", err)
	os.Exit(1)
}
