package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of compare's table.
type comparison struct {
	Workload, Metric, Unit string
	Bound                  float64
	A, B                   []float64
	MedA, MedB             float64
	Q1A, Q3A, Q1B, Q3B     float64
	Worse                  float64 // share of A's median by which B is worse (negative: better)
	Spread                 float64 // the wider of the two sets' quartile distance over median
	Verdict                string
}

// judge compares two sets of runs of one metric. B regressed when its
// median is worse than A's by more than the bound; but when either set's
// own quartile spread exceeds the bound the sets cannot tell a movement of
// that size from noise, and the verdict is unresolved, not ok.
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{Metric: def.Name, Unit: def.Unit, Bound: def.Bound, A: a, B: b}
	c.MedA, c.MedB = median(a), median(b)
	c.Q1A, c.Q3A = quartiles(a)
	c.Q1B, c.Q3B = quartiles(b)
	if c.MedA != 0 {
		c.Worse = (c.MedB - c.MedA) / c.MedA
		if def.Better == "higher" {
			c.Worse = -c.Worse
		}
	}
	c.Spread = max(spread(a), spread(b))
	switch {
	case def.Bound <= 0:
		c.Verdict = "-" // per-layer: reported, not gated
	case c.Spread > def.Bound:
		c.Verdict = verdictUnresolved
	case c.Worse > def.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictOK
	}
	return c
}

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareSets builds the table: per workload × metric, in the benchmark's
// order, for every metric both sets hold.
func compareSets(a, b []record) []comparison {
	values := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := values(a), values(b)
	var rows []comparison
	for _, sp := range specs {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			xa, xb := va[sp.Name][def.Name], vb[sp.Name][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := judge(def, xa, xb)
			c.Workload = sp.Name
			rows = append(rows, c)
		}
	}
	return rows
}

// printComparison writes the table as GitHub-flavoured markdown, which is
// also readable in a terminal.
func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintln(w, "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | B worse by | spread | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, c := range rows {
		bound := "-"
		if c.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", c.Bound*100)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %.1f%% | %s | %s |\n",
			c.Workload, c.Metric, c.Unit, c.MedA, c.Q1A, c.Q3A, c.MedB, c.Q1B, c.Q3B,
			c.Worse*100, c.Spread*100, bound, c.Verdict)
	}
}

// worstVerdict is regressed if any row regressed, else unresolved if any
// row is unresolved, else ok.
func worstVerdict(rows []comparison) string {
	worst := verdictOK
	for _, c := range rows {
		switch c.Verdict {
		case verdictRegressed:
			return verdictRegressed
		case verdictUnresolved:
			worst = verdictUnresolved
		}
	}
	return worst
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare A.jsonl B.jsonl   (files written with -out)")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rows := compareSets(a, b)
	printComparison(os.Stdout, rows)
	v := worstVerdict(rows)
	fmt.Printf("\noverall: %s\n", v)
	if v != verdictOK {
		return 1
	}
	return 0
}

// selftestMain measures the same commit twice — sets × runs of every
// workload, each run a fresh process with its own seed, the same seeds in
// every set — and compares the first set with each later one. Identical code
// must come out "ok" everywhere; a metric that does not is too noisy for its
// bound on this host. The table and a ledger row are appended to LEDGER.md.
func selftestMain(args []string) int {
	fs := flag.NewFlagSet("selftest", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "sets of runs to compare")
	runs := fs.Int("runs", 5, "runs per set and workload, each with another seed")
	seed := fs.Int64("seed", 1, "first seed; run k of every set uses seed+k")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	workload := fs.String("workload", "", "restrict to one workload")
	ledger := fs.Bool("ledger", true, "append the table and a ledger row to perf/LEDGER.md")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	outDir := filepath.Join(root, "perf", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stamp := time.Now().UTC().Format("20060102T150405")
	var todo []spec
	for _, sp := range specs {
		if *workload == "" || *workload == sp.Name {
			todo = append(todo, sp)
		}
	}
	var files []string
	for s := 0; s < *sets; s++ {
		file := filepath.Join(outDir, fmt.Sprintf("selftest-%s-set%d.jsonl", stamp, s+1))
		files = append(files, file)
		for k := 0; k < *runs; k++ {
			for _, sp := range todo {
				cmd := exec.Command(self, "-workload", sp.Name, "-seed", fmt.Sprint(*seed+int64(k)),
					"-seconds", fmt.Sprint(*seconds), "-trace", "0", "-out", file)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "perf selftest: set %d run %d %s: %v\n", s+1, k+1, sp.Name, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "perf selftest: set %d/%d run %d/%d %s done\n", s+1, *sets, k+1, *runs, sp.Name)
			}
		}
	}
	first, err := readRecords(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var report strings.Builder
	overall := verdictOK
	for s := 1; s < len(files); s++ {
		other, err := readRecords(files[s])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rows := compareSets(first, other)
		fmt.Fprintf(&report, "\nset 1 against set %d:\n\n", s+1)
		printComparison(&report, rows)
		if v := worstVerdict(rows); v != verdictOK && overall != verdictRegressed {
			overall = v
		}
	}
	fmt.Print(report.String())
	fmt.Printf("\noverall: %s\n", overall)
	if *ledger {
		h := first[0].Host
		row := fmt.Sprintf("\n## %s — selftest, %d sets × %d runs, seeds %d..%d, %gs window: %s\n\n"+
			"| commit | host | nproc | generator GOMAXPROCS (cpu) | server GOMAXPROCS (cpu) | Go | command |\n|---|---|---|---|---|---|---|\n"+
			"| %s | %s, Linux %s | %d | %d (%s) | %d (%s) | %s | `go run -C perf . selftest -sets %d -runs %d -seed %d -seconds %g` |\n",
			stamp, *sets, *runs, *seed, *seed+int64(*runs)-1, *seconds, overall,
			commitOf(root), h.CPUModel, h.Kernel, h.Nproc, h.GeneratorProc, h.GeneratorCPUs, h.ServerProcs, h.ServerCPUs,
			h.GoVersion, *sets, *runs, *seed, *seconds)
		path := filepath.Join(root, "perf", "LEDGER.md")
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		_, werr := f.WriteString(row + report.String())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 1
		}
	}
	if overall != verdictOK {
		return 1
	}
	return 0
}

// commitOf names the checkout's commit, or says that it is not a git
// checkout (the accepting driver's is not).
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "not a git checkout"
	}
	commit := strings.TrimSpace(string(out))
	st := exec.Command("git", "status", "--porcelain", "--", ".", ":!perf/out")
	st.Dir = root
	if dirty, err := st.Output(); err == nil && len(strings.TrimSpace(string(dirty))) > 0 {
		commit += " + uncommitted changes"
	}
	return commit
}
