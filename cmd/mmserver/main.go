// Command mmserver runs the push-based dissemination engine as a TCP
// daemon speaking the newline-delimited JSON protocol of internal/wire.
// Subscribers register adaptive profiles (MM by default), publishers push
// raw pages, and every relevance judgment reshapes the subscriber's profile
// online.
//
// With -state, profiles are durable: subscriptions and judgments are
// journaled to a write-ahead log, compacted by periodic incremental
// checkpoints (changed profiles are re-encoded, the rest copied verbatim),
// and restored on restart. With -max-resident-profiles, restored
// profiles boot as evicted stubs and hydrate from the store on first use, and
// the broker keeps at most that many in the heap (DESIGN.md §14).
//
// The server itself — what -http serves, what each second's tick does, the
// flight recorder's triggers (SIGQUIT among them) and the order SIGINT /
// SIGTERM shut it down in — is internal/server (DESIGN.md §8, §13).
//
// Usage:
//
//	mmserver [-addr :7070 | -addr unix:/path.sock] [-threshold 0.25]
//	         [-queue 128] [-retention 4096]
//	         [-state DIR] [-checkpoint 5m]
//	         [-max-resident-profiles 0] [-fsync]
//	         [-trace-sample 0.01] [-trace-slow 50ms]
//	         [-log-format text|json] [-log-level info] [-dump-dir DIR]
//	         [-match-slo 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mmprofile/internal/server"
)

// main is flags → server.New (which restores) → bind → serve until a signal.
// The wire address is bound only after the restore, so the first successful
// dial means the server holds every subscriber it will.
func main() {
	var cfg server.Config
	cfg.Register(flag.CommandLine)
	flag.Parse()

	srv, err := server.New(cfg, server.Seams{})
	if err != nil {
		fatal(err)
	}
	lis, err := listen(cfg.Addr)
	if err != nil {
		srv.Stop()
		fatal(err)
	}

	sig := make(chan os.Signal, 2) // room for a SIGQUIT behind the signal being handled
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	go func() {
		for s := range sig {
			if s == syscall.SIGQUIT {
				// Non-destructive: dump and keep serving, like the runtime's
				// own SIGQUIT but without dying.
				srv.Dump("sigquit")
				continue
			}
			// From here a second signal kills the process the default way: a
			// stuck final checkpoint must not make Ctrl-C a no-op.
			signal.Stop(sig)
			srv.Stop()
			return
		}
	}()

	err = srv.Serve(lis)
	srv.Stop() // waits for the handler's Stop, or is the Stop after an accept error
	if !errors.Is(err, net.ErrClosed) {
		fatal(err)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmserver:", err)
	os.Exit(1)
}
