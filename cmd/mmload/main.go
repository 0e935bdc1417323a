// Command mmload is the c10k-and-up loss-reconciliation run: it opens one
// server-push session per subscriber (100k+ concurrent connections),
// publishes topic-tagged documents, and reconciles every session's
// sequence state so that any delivery lost to queue overflow is observed —
// received + dropped == next_seq per session, or the run exits nonzero.
// With -addr pipe the harness builds mmserver's server (internal/server)
// in-process over net.Pipe connections, which is how 100k+ sessions fit
// under a 20k file descriptor limit; any other -addr (host:port or
// unix:/path) drives a real mmserver over sockets.
//
// Usage:
//
//	mmload [-addr pipe] [-subscribers 100000] [-topics 100] [-docs 500]
//	       [-publishers 4] [-batch 0] [-queue 128] [-status localhost:8080]
//
// It also prints the top-5 sessions by client-observed gaps and
// cross-checks every session's server-reported drop count against the
// server's subscriber_drops hot-key sketch (in-process in pipe mode, via
// /topz with -status over sockets); a count outside the sketch's error
// band fails the run. The rates it prints are progress output: throughput
// and latency are measured by perf/, with output checks.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg sessionsConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7070", "mmserver address (host:port or unix:/path), or pipe for an in-process server")
	flag.IntVar(&cfg.sessions, "subscribers", 20, "concurrent push sessions")
	flag.IntVar(&cfg.publishers, "publishers", 4, "publisher connections")
	flag.IntVar(&cfg.docs, "docs", 2000, "total documents to publish")
	flag.StringVar(&cfg.status, "status", "", "mmserver -http address; cross-checks drops against /topz")
	flag.IntVar(&cfg.topics, "topics", 100, "distinct topics (fan-out per doc = subscribers/topics)")
	flag.IntVar(&cfg.batch, "batch", 0, "deliveries coalesced per pushed frame (0 = server default)")
	flag.IntVar(&cfg.queue, "queue", 128, "with -addr pipe: per-subscriber delivery buffer")
	flag.Parse()
	runSessions(cfg)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mmload:", err)
	os.Exit(1)
}
