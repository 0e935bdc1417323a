// Command perf is the repository's one benchmark: four workloads against a
// fresh out-of-process mmserver over a unix socket, end-to-end metrics with
// tracing off and per-layer metrics from a traced run, every run checked
// against a brute-force reference. See README.md.
//
//	bash perf/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json's command)
//	go run -C perf . -seed N [-workload W] [-trace 1]               (all workloads when -workload is absent)
//	go run -C perf . compare A.jsonl B.jsonl
//	go run -C perf . selftest -sets 2 -runs 5 [-seed N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "selftest":
			return selftestMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (match, fanout, adapt, restart); empty runs all four")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
	out := fs.String("out", "", "append each run's record to this JSON-lines file (for compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var todo []spec
	if *workload == "" {
		todo = specs
	} else {
		sp, ok := findSpec(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *workload)
			return 2
		}
		todo = []spec{sp}
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer e.runCleanup()

	code := 0
	for _, sp := range todo {
		rec, err := e.runOne(sp, *seed, *seconds, *traced != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %s: %v\n", sp.Name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		// The result is the last line a workload prints.
		list := endToEnd
		if rec.Traced {
			list = perLayer
		}
		fmt.Println(resultLine(rec.result, list))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// newEnv finds the checkout, builds the server, makes this process the
// one-core load generator and moves it into a fresh run directory that is
// removed on every exit path.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	e := &env{serverBin: bin, outDir: filepath.Join(root, "perf", "out")}
	// The generator owns one core and the server the rest, so that the
	// load a run offers does not depend on how the scheduler interleaves
	// the two processes.
	nproc := runtime.NumCPU()
	e.serverProcs = max(1, nproc-1)
	runtime.GOMAXPROCS(1)
	e.genCPUs, e.srvCPUs = splitCPUs()
	pinSelf(e.genCPUs)
	e.host = describeHost(e.genCPUs, e.srvCPUs, e.serverProcs)

	runDir, err := os.MkdirTemp(e.outDir, "run-")
	if err != nil {
		return nil, err
	}
	outer, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(runDir); err != nil {
		return nil, err
	}
	e.onExit(func() {
		_ = os.Chdir(outer)
		_ = os.RemoveAll(runDir)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.runCleanup()
		os.Exit(130)
	}()
	return e, nil
}

// driversFor is the number of request-issuing connections: one per CPU.
func driversFor() int { return max(2, runtime.NumCPU()) }

// runOne runs one workload once and prints its metrics.
func (e *env) runOne(sp spec, seed int64, seconds float64, traced bool) (*record, error) {
	began := time.Now()
	in := generate(sp, seed, driversFor())
	rec := &record{Workload: sp.Name, Seed: seed, Seconds: seconds, Traced: traced, Inputs: in.hash(), Host: e.host}
	r := &runner{in: in, fac: procFactory{e}, opts: runOptions{
		seconds: seconds, warmup: warmup, setupRepeats: minSetups, setupBudget: setupBudget, drivers: in.drivers, traced: traced,
	}}
	if traced {
		r.opts.setupRepeats, r.opts.setupBudget = 1, 0
	}
	out, err := r.run()
	if err != nil {
		return nil, err
	}
	window, deliveries := windowMetrics(r, out)
	if min := int(minDeliverySamplesPerSec * seconds); len(deliveries) < min {
		r.fail("only %d delivery samples in the window, a median needs %d", len(deliveries), min)
	}
	rec.Attempted, rec.Failed = r.failedOps(out.log, out.sessions)
	fmt.Printf("workload %s  seed %d  window %.0fs  nproc %d  generator GOMAXPROCS %d (cpu %s)  server GOMAXPROCS %d (cpu %s)\n",
		sp.Name, seed, seconds, e.host.Nproc, e.host.GeneratorProc, e.host.GeneratorCPUs, e.host.ServerProcs, e.host.ServerCPUs)
	rec.Metrics = window
	if traced {
		layers, err := e.ladder(r, out, deliveries)
		if err != nil {
			return nil, err
		}
		// The traced run reports its own window: one set-up, byte counting
		// on for half the slices.
		for name, mt := range window {
			layers[name] = mt
		}
		rec.Metrics = layers
		printMetrics(os.Stdout, "end-to-end metrics of this traced run (one set-up, byte counting on for half the window)", layers, names(endToEnd))
		printMetrics(os.Stdout, "per-layer metrics (traced run)", layers, names(perLayer))
	} else {
		printMetrics(os.Stdout, "end-to-end metrics (tracing off; gated)", window, names(endToEnd))
		printMetrics(os.Stdout, "timings of the same window (tracing off; not gated, see LEDGER.md)", window, names(demoted))
	}
	share := hostShares(out)
	printMetrics(os.Stdout, "the run itself", share, []string{"loadgen.cpu_share", "host.steal_share"})
	rec.Findings = findings(sp, rec.Metrics, share)
	for _, f := range rec.Findings {
		fmt.Println("FINDING:", f)
	}
	rec.Failures = r.failures
	rec.Correct = len(r.failures) == 0 && rec.Failed == 0
	if !rec.Correct {
		fmt.Printf("OUTPUT CHECKS FAILED (%d failed of %d attempted):\n%s\n", rec.Failed, rec.Attempted, joinFailures(r.failures))
	}
	fmt.Fprintf(os.Stderr, "perf: %s took %.1fs wall\n", sp.Name, time.Since(began).Seconds())
	return rec, nil
}

func appendRecord(path string, rec *record) error {
	if !filepath.IsAbs(path) {
		// The harness runs inside its run directory; a relative -out is
		// relative to where the user started it.
		path = filepath.Join(startDir, path)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startDir is the working directory the harness was started in.
var startDir = func() string {
	d, _ := os.Getwd()
	return d
}()
