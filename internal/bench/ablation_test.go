package bench

import (
	"strings"
	"testing"
)

func TestEtaSweepShape(t *testing.T) {
	fig := fullHarness.EtaSweepFigure()
	s := fig.SeriesByLabel("MM")
	if s == nil || len(s.Y) != 8 {
		t.Fatalf("series: %+v", fig.Series)
	}
	// The paper's observation: η in [0.1, 0.3] performs well with little
	// difference; the memoryless extreme (η = 1) is worse than the paper's
	// default.
	var def float64
	for i, x := range s.X {
		if x == 0.2 {
			def = s.Y[i]
		}
	}
	if s.Y[len(s.Y)-1] >= def {
		t.Errorf("memoryless η=1 (%v) not below η=0.2 (%v)", s.Y[len(s.Y)-1], def)
	}
	lo, hi := s.Y[2], s.Y[2] // η ∈ {0.1, 0.2, 0.3} band
	for i := 2; i <= 4; i++ {
		if s.Y[i] < lo {
			lo = s.Y[i]
		}
		if s.Y[i] > hi {
			hi = s.Y[i]
		}
	}
	if hi-lo > 0.06 {
		t.Errorf("η band [0.1,0.3] not flat: spread %v", hi-lo)
	}
}

func TestGroupSizeShape(t *testing.T) {
	fig := fullHarness.GroupSizeFigure()
	s := fig.SeriesByLabel("Rocchio")
	if s == nil || len(s.Y) < 3 {
		t.Fatalf("series: %+v", fig.Series)
	}
	// Allan's claim at the granularity our corpus supports: group sizes
	// ≥ 10 beat purely incremental (size 1).
	ri := s.Y[0]
	var rg10 float64
	for i, x := range s.X {
		if x == 10 {
			rg10 = s.Y[i]
		}
	}
	if rg10 <= ri {
		t.Errorf("RG(10) (%v) not above RI (%v)", rg10, ri)
	}
	// The final point is batch (group = whole training set).
	if s.X[len(s.X)-1] != float64(fullHarness.Cfg.TrainDocs) {
		t.Errorf("batch point missing: x = %v", s.X[len(s.X)-1])
	}
}

func TestMergeAblationShape(t *testing.T) {
	prec, size := fullHarness.MergeAblationFigure()
	// Merging must produce profiles no larger than the unmerged variant at
	// every interest range.
	with, without := size.SeriesByLabel("MM"), size.SeriesByLabel("MM-nomerge")
	for i := range with.Y {
		if with.Y[i] > without.Y[i] {
			t.Errorf("merge increased profile size at %v%%: %v vs %v",
				with.X[i], with.Y[i], without.Y[i])
		}
	}
	// And the precision cost of merging is small.
	p1, p2 := prec.SeriesByLabel("MM"), prec.SeriesByLabel("MM-nomerge")
	for i := range p1.Y {
		if p2.Y[i]-p1.Y[i] > 0.05 {
			t.Errorf("merging cost too much precision at %v%%: %v vs %v",
				p1.X[i], p1.Y[i], p2.Y[i])
		}
	}
}

func TestDecayVariantShape(t *testing.T) {
	fig := fullHarness.DecayVariantFigure()
	weighted := fig.SeriesByLabel("sim-weighted")
	plain := fig.SeriesByLabel("plain")
	if weighted == nil || plain == nil {
		t.Fatalf("series: %+v", fig.Series)
	}
	// The design decision's justification: at θ = 0 the plain rule churns
	// the single vector and loses badly; in the paper's operating range the
	// two are equivalent.
	if weighted.Y[0] <= plain.Y[0] {
		t.Errorf("sim-weighted decay (%v) not above plain (%v) at θ=0",
			weighted.Y[0], plain.Y[0])
	}
	for i := 1; i < len(weighted.Y); i++ {
		if d := plain.Y[i] - weighted.Y[i]; d > 0.05 || d < -0.05 {
			t.Errorf("variants diverge at θ=%v: %v vs %v", weighted.X[i], weighted.Y[i], plain.Y[i])
		}
	}
}

func TestNoiseShape(t *testing.T) {
	fig := fullHarness.NoiseFigure()
	for _, label := range []string{"MM", "RG10", "RI"} {
		s := fig.SeriesByLabel(label)
		if s == nil || len(s.Y) != 5 {
			t.Fatalf("series %s: %+v", label, fig.Series)
		}
		// Heavy noise must hurt relative to clean feedback.
		if s.Y[4] >= s.Y[0] {
			t.Errorf("%s: 30%% noise (%v) not below clean (%v)", label, s.Y[4], s.Y[0])
		}
	}
	// MM keeps its lead under light noise (≤5%); beyond that the finding —
	// recorded in EXPERIMENTS.md — is that single-vector averaging is the
	// more noise-robust representation, so no ordering is asserted there.
	mm, rg := fig.SeriesByLabel("MM"), fig.SeriesByLabel("RG10")
	for i := 0; i <= 1; i++ {
		if mm.Y[i] <= rg.Y[i] {
			t.Errorf("MM (%v) not above RG10 (%v) at flip rate %v", mm.Y[i], rg.Y[i], mm.X[i])
		}
	}
}

func TestSignificance(t *testing.T) {
	cs := fullHarness.Significance("MM", "RI", 8)
	if len(cs) != 3 {
		t.Fatalf("comparisons = %d", len(cs))
	}
	for _, c := range cs {
		if c.P < 0 || c.P > 1 {
			t.Errorf("%s: p = %v", c.Workload, c.P)
		}
		if c.Runs != 8 {
			t.Errorf("runs = %d", c.Runs)
		}
	}
	// At the broadest workload the MM–RI gap is large and consistent; it
	// must come out significant.
	last := cs[len(cs)-1]
	if last.MeanDiff <= 0 || last.P >= 0.05 {
		t.Errorf("30%% workload not significant: %+v", last)
	}
	var out strings.Builder
	WriteComparisons(&out, cs)
	if !strings.Contains(out.String(), "MM vs RI") {
		t.Errorf("report:\n%s", out.String())
	}
	WriteComparisons(&out, nil) // no-op
}

func TestBatchClusterShape(t *testing.T) {
	prec, size := quickHarness.BatchClusterFigure()
	mm, km := prec.SeriesByLabel("MM"), prec.SeriesByLabel("KMeans")
	if mm == nil || km == nil {
		t.Fatalf("series: %+v", prec.Series)
	}
	// Equal cluster budgets by construction.
	ms, ks := size.SeriesByLabel("MM"), size.SeriesByLabel("KMeans")
	for i := range ms.Y {
		if ms.Y[i] != ks.Y[i] {
			t.Errorf("cluster budgets differ at %v%%: %v vs %v", ms.X[i], ms.Y[i], ks.Y[i])
		}
	}
	// The single-pass penalty must be bounded: MM stays within 0.12 niap
	// of the batch upper bound everywhere.
	for i := range mm.Y {
		if km.Y[i]-mm.Y[i] > 0.12 {
			t.Errorf("single-pass penalty too large at %v%%: MM %v vs KMeans %v",
				mm.X[i], mm.Y[i], km.Y[i])
		}
	}
}

func TestLSIFigureShape(t *testing.T) {
	fig := quickHarness.LSIFigure()
	for _, label := range []string{"MM", "LSI-MM", "LSI-NRN"} {
		s := fig.SeriesByLabel(label)
		if s == nil || len(s.Y) != 3 {
			t.Fatalf("series %s missing: %+v", label, fig.Series)
		}
		for i, y := range s.Y {
			if y <= 0.2 || y > 1 {
				t.Errorf("%s point %d out of plausible range: %v", label, i, y)
			}
		}
	}
}
