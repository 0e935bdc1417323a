// Package server is the one assembly of the dissemination server: registry →
// store → broker → flight recorder → wire server, restored from the
// state directory and run on one schedule. mmserver, the integration
// tests and mmload -addr pipe all build this value; nothing else wires those
// packages together (DESIGN.md §13).
package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/metrics"
	"mmprofile/internal/obs"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/store"
	"mmprofile/internal/wire"
)

// Seams are what a test substitutes besides the listener or connection it
// hands to Serve / ServeConn. The zero value is the real thing.
type Seams struct {
	FS  faultfs.FS // the store's filesystem; nil = the OS
	Log io.Writer  // where log records go; nil = stderr
}

// tickEvery is the server's one period; at one ring row a tick the
// registry's 120 rows answer /tsz's 1s/10s/60s spans with a minute of slack.
// heartbeatMaxAge is the age of the last probe past which /readyz
// degrades; the gap tolerates scheduler hiccups without flapping.
// sloShort/sloLong are -match-slo's burn-rate windows. headerTimeout is how
// long a status connection may take over its request headers before it
// stops holding a goroutine and an fd.
const (
	tickEvery       = time.Second
	heartbeatMaxAge = 5 * time.Second
	sloCooldown     = time.Minute
	sloShort        = 10 * time.Second
	sloLong         = 60 * time.Second
	sloObjective    = 0.99
	headerTimeout   = 5 * time.Second
)

// Server is a complete dissemination server. Build it with New, hand it
// connections with Serve or ServeConn, end it with Stop.
type Server struct {
	cfg     Config
	log     *obs.Logger
	reg     *metrics.Registry
	st      *store.Store // nil without -state
	broker  *pubsub.Broker
	rec     *obs.Recorder
	wire    *wire.Server
	sampler *obs.RuntimeSampler
	sloRule metrics.BurnRule

	// What readiness reads: Serve's start sets serving, Stop sets draining
	// first, and every tick whose probe got through the publish path
	// stores its time in lastBeat.
	serving  atomic.Bool
	draining atomic.Bool
	lastBeat atomic.Pointer[time.Time]

	// tick's own state: only its caller — the loop Serve starts, or a test
	// that never calls Serve — touches it.
	nextSLODump    time.Time
	nextCheckpoint time.Time
	checkpointing  atomic.Bool

	headerTimeout time.Duration  // tests shorten it before Serve
	mu            sync.Mutex     // orders Serve's start against Stop
	status        *http.Server   // nil without -http, or before Serve
	quit          chan struct{}  // closed by Stop: ends the loop
	scheduled     sync.WaitGroup // the loop, and the periodic checkpoint in flight
	stopOnce      sync.Once
}

// New assembles a server from cfg and restores its subscribers from the
// state directory; it binds no address and starts no goroutine. It validates
// before it opens anything and closes what it opened on any later error.
func New(cfg Config, seams Seams) (*Server, error) {
	if cfg.MaxResident > 0 && cfg.StateDir == "" {
		return nil, errors.New("-max-resident-profiles requires -state (evicted profiles hydrate from the store)")
	}
	level, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	ring := obs.NewEventRing(0) // the flight recorder's tap on the log
	logger, err := obs.NewLogger(obs.LogOptions{Format: cfg.LogFormat, Output: seams.Log, Level: level, Ring: ring})
	if err != nil {
		return nil, err
	}

	// One registry: every layer records into it, tick rows its ring, the
	// status endpoints and the flight recorder read it. The mm_store_* family
	// is registered up front so /metrics carries it even without -state.
	s := &Server{cfg: cfg, log: logger, reg: metrics.NewRegistry(),
		headerTimeout: headerTimeout, quit: make(chan struct{})}
	store.RegisterMetrics(s.reg)
	opts := cfg.brokerOptions(s.reg)
	opts.Log = logger
	if cfg.StateDir != "" {
		so := cfg.storeOptions(s.reg)
		so.FS = seams.FS
		if s.st, err = store.Open(cfg.StateDir, so); err != nil {
			return nil, err
		}
		opts.Journal, opts.Hydrator, opts.MaxResident = s.st, s.st, cfg.MaxResident
	}
	s.broker = pubsub.New(opts)
	built := time.Now() // the publish path's beat until the first tick
	s.lastBeat.Store(&built)
	s.sampler = obs.NewRuntimeSampler(s.reg)

	// Flight recorder: a panic in Serve or any connection handler, Dump
	// (mmserver's SIGQUIT), the match-SLO burn in tick and POST /debugz/dump
	// all write bundles here.
	src := obs.BundleSources{Metrics: s.reg, Sampler: s.sampler, Tracer: s.broker.Tracer(), Health: s.readiness}
	if s.st != nil {
		src.WALInfo = func() (any, error) { return s.st.WALInfo() }
	}
	s.rec = obs.NewRecorder(resolveDumpDir(cfg.DumpDir, cfg.StateDir), ring, src)
	s.wire = wire.NewServerLogger(s.broker, logger)
	s.wire.SetRecorder(s.rec)

	// The 10s window proves a breach is current, the 60s window that it is
	// sustained; a tick with no fresh match samples cannot breach.
	s.sloRule = metrics.BurnRule{Hist: "mm_pubsub_match_seconds", Limit: cfg.MatchSLO.Seconds(),
		Objective: sloObjective, Short: sloShort, Long: sloLong, Factor: 1}
	if tr := s.broker.Tracer(); tr != nil {
		s.reg.GaugeFunc("mm_trace_sampled",
			"Root spans captured by head sampling or remote join.",
			func() float64 { n, _ := tr.Counts(); return float64(n) })
		s.reg.GaugeFunc("mm_trace_slow_captured",
			"Traces retained for meeting the slow threshold.",
			func() float64 { _, n := tr.Counts(); return float64(n) })
	}

	if s.st != nil {
		if err := restore(s.st, s.broker, logger, cfg.MaxResident > 0); err != nil {
			s.st.Close()
			return nil, err
		}
	}
	return s, nil
}

// Registry is the server's one metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler serves the status endpoints; Serve mounts it on -http.
func (s *Server) Handler() http.Handler {
	return wire.NewStatusHandler(s.broker, wire.StatusOptions{Health: s.readiness, Recorder: s.rec})
}

// readiness is the /readyz snapshot. It is ready when Serve has started,
// the store (if any) has not failed and a tick's probe got through the
// publish path within heartbeatMaxAge; not_ready before Serve or on a failed
// store; degraded, still serving, on a stale probe; draining once Stop
// begins. It takes no broker lock: a wedged publish path blocks tick's
// probe, not this, so the beat goes stale and the endpoint names it.
func (s *Server) readiness() obs.HealthSnapshot {
	server := obs.ComponentHealth{Status: "ready"}
	if !s.serving.Load() {
		server = obs.ComponentHealth{Status: "not_ready", Reason: "starting"}
	}
	wal := obs.ComponentHealth{Status: "ready", Reason: "in-memory (no -state)"}
	if s.st != nil {
		wal.Reason = ""
		if err := s.st.Health(); err != nil {
			wal = obs.ComponentHealth{Status: "not_ready", Reason: err.Error()}
		}
	}
	path := obs.Heartbeat(time.Since(*s.lastBeat.Load()), heartbeatMaxAge)
	return obs.NewSnapshot(s.draining.Load(),
		map[string]obs.ComponentHealth{"server": server, "store_wal": wal, "publish_path": path})
}

// ServeConn runs the wire protocol on one established connection and
// returns at once. It starts no schedule: a server given only connections
// ticks when its owner calls tick.
func (s *Server) ServeConn(conn net.Conn) { s.wire.ServeConn(conn) }

// Dump writes a flight-recorder bundle and logs where, or why not.
func (s *Server) Dump(reason string) {
	if path, err := s.rec.Dump(reason); err != nil {
		s.log.Error("mmserver: "+reason+" dump failed", slog.String("err", err.Error()))
	} else {
		s.log.Info("mmserver: "+reason+" bundle written", slog.String("bundle", path))
	}
}

// Serve runs the server on lis: it binds the -http status listener, starts
// the tick loop, reports ready and accepts wire connections until Stop closes
// lis (net.ErrClosed) or accepting fails. Either way the caller then calls
// Stop, which returns once the shutdown, its own or one under way, is over.
func (s *Server) Serve(lis net.Listener) error {
	defer s.rec.RecoverRepanic()
	defer lis.Close()
	if err := s.start(lis.Addr()); err != nil {
		return err
	}
	return s.wire.Serve(lis)
}

// start is Serve up to the accept loop, under mu so that Stop finds either
// nothing started or all of it.
func (s *Server) start(addr net.Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.quit:
		return net.ErrClosed
	default:
	}
	s.log.Info("mmserver: listening",
		slog.String("addr", addr.String()),
		slog.Float64("threshold", s.cfg.Threshold),
		slog.String("state", s.cfg.StateDir),
		slog.String("dump_dir", s.rec.Dir()))
	if s.broker.Tracer() != nil {
		s.log.Info("mmserver: tracing on — /tracez on the -http listener",
			slog.Float64("sample", s.cfg.TraceSample),
			slog.String("slow", s.cfg.TraceSlow.String()))
	}
	if s.cfg.HTTPAddr != "" {
		httpLis, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			return err
		}
		s.log.Info("mmserver: status pages", slog.String("url", "http://"+httpLis.Addr().String()+"/"))
		s.status = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: s.headerTimeout}
		go func(status *http.Server) { // ends when Stop closes it
			if err := status.Serve(httpLis); !errors.Is(err, http.ErrServerClosed) {
				s.log.Warn("mmserver: http", slog.String("err", err.Error()))
			}
		}(s.status)
	}
	// Restore may have outlasted a heartbeat's age: beat before reporting
	// ready, not a second after.
	s.tick(time.Now())
	s.serving.Store(true)
	s.scheduled.Add(1)
	go func() { // the server's one periodic goroutine
		defer s.scheduled.Done()
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case now := <-t.C:
				s.tick(now)
			}
		}
	}()
	return nil
}

// tick runs everything the server does on a schedule, once, as of now.
func (s *Server) tick(now time.Time) {
	s.sampler.SampleNow()
	s.reg.Tick(now)
	// Never breached with -match-slo 0. A breach lasts many ticks: one bundle
	// a cooldown is evidence, one a second is a disk filler.
	if burn := s.reg.Burn(s.sloRule); burn.Breached && !now.Before(s.nextSLODump) {
		s.nextSLODump = now.Add(sloCooldown)
		s.log.Warn("mmserver: match SLO burn-rate breach",
			slog.Float64("short_burn", burn.ShortBurn),
			slog.Float64("long_burn", burn.LongBurn),
			slog.Float64("slo_seconds", s.cfg.MatchSLO.Seconds()))
		s.Dump("match_slo")
	}
	if s.st != nil && s.cfg.Checkpoint > 0 {
		switch {
		case s.nextCheckpoint.IsZero():
			s.nextCheckpoint = now.Add(s.cfg.Checkpoint)
		case !now.Before(s.nextCheckpoint) && s.checkpointing.CompareAndSwap(false, true):
			// Off the loop, so a long rewrite delays no beat and no ring row;
			// one at a time, and Stop waits for it before the final one.
			s.nextCheckpoint = now.Add(s.cfg.Checkpoint)
			s.scheduled.Add(1)
			go func() {
				defer s.scheduled.Done()
				defer s.checkpointing.Store(false)
				if err := runCheckpoint(s.st, s.log); err != nil {
					s.log.Error("mmserver: checkpoint", slog.String("err", err.Error()))
				}
			}()
		}
	}
	// Last, because it is the one step that can block: the probe ends in the
	// index's read lock, and a wedge anywhere on the publish path leaves the
	// beat to go stale.
	s.broker.PingPipeline()
	s.lastBeat.Store(&now)
}

// Stop shuts the server down and returns when nothing of it is left
// running. Readiness flips first, so balancers watching /readyz stop routing
// (/healthz stays green: the process must not be restarted mid-drain). The
// schedule and every connection end before the final checkpoint, so no late
// judgment re-dirties a profile behind it and a clean shutdown leaves no WAL
// tail. A second call waits for the first.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.log.Info("mmserver: shutting down")
		s.mu.Lock()
		close(s.quit)
		status := s.status
		s.mu.Unlock()
		s.scheduled.Wait()
		s.wire.Close()
		if s.st != nil {
			if err := runCheckpoint(s.st, s.log); err != nil {
				s.log.Error("mmserver: final checkpoint", slog.String("err", err.Error()))
			}
		}
		if status != nil {
			status.Close()
		}
		if s.st != nil {
			s.st.Close()
		}
	})
}

// restore registers the store's subscribers with the broker, which is all
// the wire server needs to address them; SubscribeRestored never re-journals.
// Eagerly, every profile is replayed into the heap; lazily (with
// -max-resident-profiles), each user becomes an evicted stub that hydrates on
// first use — the names come from the store's offset index, so boot holds
// O(subscribers) index entries, never the state. Boot compacts nothing: a
// recovered WAL tail stays dirty until the first periodic or shutdown
// checkpoint compacts it (DESIGN.md §14).
func restore(st *store.Store, broker *pubsub.Broker, logger *obs.Logger, lazy bool) error {
	var users []string
	var profiles map[string]*core.Profile // stays nil when lazy: every user boots as a stub
	if lazy {
		var err error
		if users, err = st.RestoredUsers(); err != nil {
			return err
		}
	} else {
		records, events, err := st.Load()
		if err != nil {
			return err
		}
		if profiles, err = store.Restore(records, events); err != nil {
			return err
		}
		users = store.Users(records, events)
	}
	for _, user := range users {
		if _, err := broker.SubscribeRestored(user, profiles[user]); err != nil {
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

// runCheckpoint runs one incremental checkpoint: a segment rewrite when the
// WAL has touched any profile (Checkpoint fsyncs the outgoing WAL first).
func runCheckpoint(st *store.Store, logger *obs.Logger) error {
	stats, err := st.Checkpoint(1)
	if err != nil {
		return err
	}
	logger.Debug("mmserver: checkpoint",
		slog.Int("profiles", stats.Profiles),
		slog.Int("carried", stats.Carried),
		slog.Int64("bytes", stats.Bytes))
	return nil
}
