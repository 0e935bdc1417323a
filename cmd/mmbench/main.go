// Command mmbench regenerates the paper's evaluation figures (see
// DESIGN.md's experiment index) on the synthetic Yahoo!-style collection
// and prints each as an aligned table, optionally writing CSV files.
//
// Usage:
//
//	mmbench [-fig KEY[,KEY...]|all|ablations|everything] [-list]
//	        [-runs N] [-quick] [-csv DIR] [-svg DIR] [-seed N]
//
// "all" runs the paper's figures; "ablations" runs the design-choice
// ablations and extensions (η sweep, RG group-size sweep, merge on/off,
// decay variants, LSI space); "everything" runs both.
// -list prints every key. Performance is measured by perf/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mmprofile/internal/bench"
)

// experiment is one row of the experiment index: -list, the -fig help,
// group selection and dispatch all read this one table.
type experiment struct {
	key   string
	group string // "all" (the paper's figures), "ablations", or "" (by key only)
	title string
	run   func(*env) []bench.Figure
}

// env is what an experiment runs against.
type env struct {
	h         *bench.Harness
	threshold []bench.Figure // Figs. 6 and 7 come out of one sweep
}

func (e *env) thresholdFigure(i int) []bench.Figure {
	if e.threshold == nil {
		p, s := e.h.ThresholdFigures()
		e.threshold = []bench.Figure{p, s}
	}
	return e.threshold[i : i+1]
}

func one(f bench.Figure) []bench.Figure    { return []bench.Figure{f} }
func two(p, s bench.Figure) []bench.Figure { return []bench.Figure{p, s} }

var experiments = []experiment{
	{"4", "all", "Fig. 4 — niap, top-level categories (RI, RG10, MM)", func(e *env) []bench.Figure { return one(e.h.Fig4()) }},
	{"5", "all", "Fig. 5 — niap, second-level categories", func(e *env) []bench.Figure { return one(e.h.Fig5()) }},
	{"6", "all", "Fig. 6 — precision vs threshold θ", func(e *env) []bench.Figure { return e.thresholdFigure(0) }},
	{"7", "all", "Fig. 7 — profile size vs threshold θ", func(e *env) []bench.Figure { return e.thresholdFigure(1) }},
	{"8", "all", "Fig. 8 — partial interest shift", func(e *env) []bench.Figure { return one(e.h.Fig8()) }},
	{"9", "all", "Fig. 9 — complete interest shift", func(e *env) []bench.Figure { return one(e.h.Fig9()) }},
	{"10", "all", "Fig. 10 — adding an interest", func(e *env) []bench.Figure { return one(e.h.Fig10()) }},
	{"11", "all", "Fig. 11 — deleting an interest", func(e *env) []bench.Figure { return one(e.h.Fig11()) }},
	{"batch", "all", "§5.2 — batch Rocchio vs incremental learners", func(e *env) []bench.Figure { return one(e.h.BatchFigure()) }},
	{"learning", "all", "§5.1 — learning rate", func(e *env) []bench.Figure { return one(e.h.LearningRateFigure()) }},
	{"eta", "ablations", "A1 — adaptability η sweep", func(e *env) []bench.Figure { return one(e.h.EtaSweepFigure()) }},
	{"group", "ablations", "A2 — Rocchio group-size sweep", func(e *env) []bench.Figure { return one(e.h.GroupSizeFigure()) }},
	{"merge", "ablations", "A3 — merge operation on/off", func(e *env) []bench.Figure { return two(e.h.MergeAblationFigure()) }},
	{"decay", "ablations", "A4 — strength-decay variants", func(e *env) []bench.Figure { return one(e.h.DecayVariantFigure()) }},
	{"noise", "ablations", "A6 — feedback-noise robustness", func(e *env) []bench.Figure { return one(e.h.NoiseFigure()) }},
	{"kmeans", "ablations", "A7 — single-pass vs batch clustering", func(e *env) []bench.Figure { return two(e.h.BatchClusterFigure()) }},
	{"lsi", "ablations", "A5 — keyword vs LSI space", func(e *env) []bench.Figure { return one(e.h.LSIFigure()) }},
	{"ttest", "", "paired significance tests (MM vs RG10, MM vs RI)", func(e *env) []bench.Figure {
		n := max(e.h.Cfg.Runs, 10) // t-tests at the figure default of 4 runs have little power
		bench.WriteComparisons(os.Stdout, e.h.Significance("MM", "RG10", n))
		fmt.Println()
		bench.WriteComparisons(os.Stdout, e.h.Significance("MM", "RI", n))
		return nil
	}},
}

func main() {
	keys := make([]string, len(experiments))
	for i, x := range experiments {
		keys[i] = x.key
	}
	var (
		figFlag = flag.String("fig", "all", "comma-separated experiments: "+strings.Join(keys, ", ")+"; or a group: all (the paper's figures), ablations, everything")
		runs    = flag.Int("runs", 0, "seeded repetitions per data point (0 = config default)")
		quick   = flag.Bool("quick", false, "use the scaled-down configuration (fast smoke run)")
		csvDir  = flag.String("csv", "", "also write <fig>.csv files into this directory")
		svgDir  = flag.String("svg", "", "also write <fig>.svg charts into this directory")
		seed    = flag.Int64("seed", 0, "base seed (0 = config default)")
		list    = flag.Bool("list", false, "print the experiment index and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments (-fig KEY; groups: all, ablations, everything):")
		for _, x := range experiments {
			fmt.Printf("  %-9s %s\n", x.key, x.title)
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.BaseSeed = *seed
	}
	e := &env{h: bench.NewHarness(cfg)}

	want := strings.Split(*figFlag, ",")
	selected := func(x experiment) bool {
		for _, w := range want {
			w = strings.TrimSpace(w)
			if w == x.key || x.group != "" && (w == x.group || w == "everything") {
				return true
			}
		}
		return false
	}

	shiftFigs := map[string]bool{"fig8": true, "fig9": true, "fig10": true, "fig11": true}
	ran := 0
	for _, x := range experiments {
		if !selected(x) {
			continue
		}
		ran++
		start := time.Now()
		for _, fig := range x.run(e) {
			fig.WriteText(os.Stdout)
			if shiftFigs[fig.ID] {
				fmt.Printf("  docs to recover 95%% of shift-point precision:")
				rt := e.h.RecoveryTimes(fig)
				for _, s := range fig.Series {
					if rt[s.Label] >= 0 {
						fmt.Printf("  %s=%d", s.Label, rt[s.Label])
					} else {
						fmt.Printf("  %s=never", s.Label)
					}
				}
				fmt.Println()
			}
			fmt.Printf("  [%s: %d runs, %v]\n\n", fig.ID, cfg.Runs, time.Since(start).Round(time.Millisecond))
			if *csvDir != "" {
				if err := writeFile(*csvDir, fig.ID+".csv", func(w *os.File) error {
					fig.WriteCSV(w)
					return nil
				}); err != nil {
					fmt.Fprintln(os.Stderr, "mmbench:", err)
					os.Exit(1)
				}
			}
			if *svgDir != "" {
				fig := fig
				if err := writeFile(*svgDir, fig.ID+".svg", func(w *os.File) error {
					return fig.WriteSVG(w)
				}); err != nil {
					fmt.Fprintln(os.Stderr, "mmbench:", err)
					os.Exit(1)
				}
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "mmbench: no experiment matches -fig=%s (see -list)\n", *figFlag)
		os.Exit(2)
	}
}

func writeFile(dir, name string, write func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
