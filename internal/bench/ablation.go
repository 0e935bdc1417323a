package bench

import (
	"fmt"

	"mmprofile/internal/bench/cluster"
	"mmprofile/internal/bench/lsi"
	"mmprofile/internal/core"
	"mmprofile/internal/eval"
	"mmprofile/internal/filter"
	"mmprofile/internal/rocchio"
	"mmprofile/internal/sim"
	"mmprofile/internal/vsm"
)

// Ablation experiments for the design choices documented in DESIGN.md §6
// and for two claims the paper inherits from related work. They share the
// harness's workloads so results are comparable with the main figures.

// EtaSweepFigure sweeps MM's adaptability η on the 20% top-level workload.
// The paper (Section 5.1) reports η ∈ [0.1, 0.3] performs well with little
// difference inside the range; η → 0 freezes profile vectors, η → 1 makes
// MM memoryless.
func (h *Harness) EtaSweepFigure() Figure {
	fig := Figure{
		ID:     "eta",
		Title:  "Ablation: adaptability η, 20% top-level workload (θ=0.15)",
		XLabel: "eta",
		YLabel: "niap",
	}
	s := Series{Label: "MM"}
	n := h.interestCount(20, true)
	for _, eta := range []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0} {
		var sum float64
		for run := 0; run < h.Cfg.Runs; run++ {
			w := h.staticWorkload(run, n, true)
			opts := core.DefaultOptions()
			opts.Theta = h.Cfg.Theta
			opts.Eta = eta
			sum += eval.Run(core.New(opts), w.user, w.stream, w.test).NIAP
		}
		s.X = append(s.X, eta)
		s.Y = append(s.Y, sum/float64(h.Cfg.Runs))
	}
	fig.Series = []Series{s}
	return fig
}

// GroupSizeFigure sweeps RG's group size on the 20% top-level workload.
// Allan's result, which the paper builds on (Section 2.2): effectiveness
// increases with group size, topping out at batch.
func (h *Harness) GroupSizeFigure() Figure {
	fig := Figure{
		ID:     "group",
		Title:  "Ablation: Rocchio group size, 20% top-level workload",
		XLabel: "group-size",
		YLabel: "niap",
	}
	s := Series{Label: "Rocchio"}
	n := h.interestCount(20, true)
	sizes := []int{1, 5, 10, 25, 50, 100}
	// Drop group sizes that don't fit the training stream (quick configs),
	// keeping batch as the limiting case below.
	for len(sizes) > 1 && sizes[len(sizes)-1] >= h.Cfg.TrainDocs {
		sizes = sizes[:len(sizes)-1]
	}
	for _, size := range sizes {
		var sum float64
		for run := 0; run < h.Cfg.Runs; run++ {
			w := h.staticWorkload(run, n, true)
			var l filter.Learner
			if size == 1 {
				l = rocchio.NewRI()
			} else {
				l = rocchio.NewRG(size)
			}
			sum += eval.Run(l, w.user, w.stream, w.test).NIAP
		}
		s.X = append(s.X, float64(size))
		s.Y = append(s.Y, sum/float64(h.Cfg.Runs))
	}
	// Batch is the limiting case; report it as a pseudo group size of the
	// whole training set.
	var sum float64
	for run := 0; run < h.Cfg.Runs; run++ {
		w := h.staticWorkload(run, n, true)
		sum += eval.Run(rocchio.NewBatch(), w.user, w.stream, w.test).NIAP
	}
	s.X = append(s.X, float64(h.Cfg.TrainDocs))
	s.Y = append(s.Y, sum/float64(h.Cfg.Runs))
	fig.Series = []Series{s}
	return fig
}

// MergeAblationFigure compares MM with and without the merge operation
// across the top-level interest ranges, reporting both effectiveness and
// profile size — merging exists to keep profiles compact without hurting
// precision (Section 3.3).
func (h *Harness) MergeAblationFigure() (precision, size Figure) {
	precision = Figure{
		ID:     "merge",
		Title:  "Ablation: merge operation — precision",
		XLabel: "pct-relevant",
		YLabel: "niap",
	}
	size = Figure{
		ID:     "merge-size",
		Title:  "Ablation: merge operation — profile size",
		XLabel: "pct-relevant",
		YLabel: "profile-vectors",
	}
	variants := []struct {
		label   string
		disable bool
	}{{"MM", false}, {"MM-nomerge", true}}
	for _, v := range variants {
		ps := Series{Label: v.label}
		ss := Series{Label: v.label}
		for _, pct := range interestPercentages {
			n := h.interestCount(pct, true)
			var niapSum, sizeSum float64
			for run := 0; run < h.Cfg.Runs; run++ {
				w := h.staticWorkload(run, n, true)
				opts := core.DefaultOptions()
				opts.Theta = h.Cfg.Theta
				opts.Eta = h.Cfg.Eta
				opts.DisableMerge = v.disable
				res := eval.Run(core.New(opts), w.user, w.stream, w.test)
				niapSum += res.NIAP
				sizeSum += float64(res.ProfileSize)
			}
			ps.X = append(ps.X, float64(pct))
			ps.Y = append(ps.Y, niapSum/float64(h.Cfg.Runs))
			ss.X = append(ss.X, float64(pct))
			ss.Y = append(ss.Y, sizeSum/float64(h.Cfg.Runs))
		}
		precision.Series = append(precision.Series, ps)
		size.Series = append(size.Series, ss)
	}
	return precision, size
}

// DecayVariantFigure compares the similarity-weighted strength update this
// implementation defaults to against the plain s·exp(c·f_d) rule, across
// the θ sweep on the 20% workload — the design decision recorded in
// DESIGN.md §6 (the plain rule collapses at low θ, where barely-similar
// negative judgments constantly reach the few clusters).
func (h *Harness) DecayVariantFigure() Figure {
	fig := Figure{
		ID:     "decay",
		Title:  "Ablation: similarity-weighted vs plain strength decay (20% workload)",
		XLabel: "theta",
		YLabel: "niap",
	}
	variants := []struct {
		label      string
		unweighted bool
	}{{"sim-weighted", false}, {"plain", true}}
	n := h.interestCount(20, true)
	for _, v := range variants {
		s := Series{Label: v.label}
		for _, theta := range thresholdSweep {
			var sum float64
			for run := 0; run < h.Cfg.Runs; run++ {
				w := h.staticWorkload(run, n, true)
				opts := core.DefaultOptions()
				opts.Theta = theta
				opts.Eta = h.Cfg.Eta
				opts.UnweightedDecay = v.unweighted
				sum += eval.Run(core.New(opts), w.user, w.stream, w.test).NIAP
			}
			s.X = append(s.X, theta)
			s.Y = append(s.Y, sum/float64(h.Cfg.Runs))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// NoiseFigure measures robustness to unreliable feedback: each judgment
// is flipped with probability p (the user mis-clicks); effectiveness is
// still scored against true relevance. The paper assumes clean feedback;
// this ablation quantifies how much of MM's advantage survives noise.
func (h *Harness) NoiseFigure() Figure {
	fig := Figure{
		ID:     "noise",
		Title:  "Ablation: feedback noise, 20% top-level workload",
		XLabel: "flip-rate",
		YLabel: "niap",
	}
	learners := []string{"MM", "RG10", "RI"}
	for _, l := range learners {
		fig.Series = append(fig.Series, Series{Label: l})
	}
	n := h.interestCount(20, true)
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		sums := make([]float64, len(learners))
		for run := 0; run < h.Cfg.Runs; run++ {
			w := h.staticWorkload(run, n, true)
			noisy := sim.NewNoisyUser(w.user, rate, w.rng)
			for li, name := range learners {
				sums[li] += eval.Run(h.newLearner(name), noisy, w.stream, w.test).NIAP
			}
		}
		for li := range learners {
			fig.Series[li].X = append(fig.Series[li].X, rate)
			fig.Series[li].Y = append(fig.Series[li].Y, sums[li]/float64(h.Cfg.Runs))
		}
	}
	return fig
}

// BatchClusterFigure compares MM's single-pass clustering with an offline
// spherical k-means over the same judged documents — the batch style the
// paper rules out as impractical (Section 1.2). K is set per run to MM's
// own final profile size, so the comparison isolates *how* the clusters
// are formed, not how many there are.
func (h *Harness) BatchClusterFigure() (precision, size Figure) {
	precision = Figure{
		ID:     "kmeans",
		Title:  "Ablation: single-pass (MM) vs batch clustering (k-means) — precision",
		XLabel: "pct-relevant",
		YLabel: "niap",
	}
	size = Figure{
		ID:     "kmeans-size",
		Title:  "Ablation: single-pass vs batch clustering — profile size",
		XLabel: "pct-relevant",
		YLabel: "profile-vectors",
	}
	mmP := Series{Label: "MM"}
	kmP := Series{Label: "KMeans"}
	mmS := Series{Label: "MM"}
	kmS := Series{Label: "KMeans"}
	for _, pct := range interestPercentages {
		n := h.interestCount(pct, true)
		var mmNiap, kmNiap, mmSize, kmSize float64
		for run := 0; run < h.Cfg.Runs; run++ {
			w := h.staticWorkload(run, n, true)
			mm := h.newLearner("MM")
			res := eval.Run(mm, w.user, w.stream, w.test)
			mmNiap += res.NIAP
			mmSize += float64(res.ProfileSize)

			k := res.ProfileSize
			if k < 1 {
				k = 1
			}
			km := cluster.NewKMeans(cluster.KMeansOptions{K: k, Seed: h.runSeed(run)})
			resK := eval.Run(km, w.user, w.stream, w.test)
			kmNiap += resK.NIAP
			kmSize += float64(resK.ProfileSize)
		}
		r := float64(h.Cfg.Runs)
		mmP.X = append(mmP.X, float64(pct))
		mmP.Y = append(mmP.Y, mmNiap/r)
		kmP.X = append(kmP.X, float64(pct))
		kmP.Y = append(kmP.Y, kmNiap/r)
		mmS.X = append(mmS.X, float64(pct))
		mmS.Y = append(mmS.Y, mmSize/r)
		kmS.X = append(kmS.X, float64(pct))
		kmS.Y = append(kmS.Y, kmSize/r)
	}
	precision.Series = []Series{mmP, kmP}
	size.Series = []Series{mmS, kmS}
	return precision, size
}

// LSIFigure compares keyword-space learners with their LSI-space
// counterparts (the Section 6 generalization) across the top-level
// interest ranges. The LSI space is fitted per run on that run's training
// split, rank 60 by default (clamped for small quick-config splits).
func (h *Harness) LSIFigure() Figure {
	fig := Figure{
		ID:     "lsi",
		Title:  "Extension: keyword space vs LSI space (rank 60)",
		XLabel: "pct-relevant",
		YLabel: "niap",
	}
	labels := []string{"MM", "LSI-MM", "LSI-NRN"}
	for _, l := range labels {
		fig.Series = append(fig.Series, Series{Label: l})
	}
	for _, pct := range interestPercentages {
		n := h.interestCount(pct, true)
		sums := make([]float64, len(labels))
		for run := 0; run < h.Cfg.Runs; run++ {
			w := h.staticWorkload(run, n, true)
			rank := 60
			if max := len(w.stream) - 1; rank > max {
				rank = max
			}
			trainVecs := make([]vsm.Vector, len(w.stream))
			for i, d := range w.stream {
				trainVecs[i] = d.Vec
			}
			model, err := lsi.Fit(trainVecs, rank, h.runSeed(run))
			if err != nil {
				panic(fmt.Sprintf("bench: LSI fit: %v", err))
			}
			opts := core.DefaultOptions()
			opts.Theta = h.Cfg.Theta
			opts.Eta = h.Cfg.Eta
			learners := []filter.Learner{
				core.New(opts),
				lsi.NewMM(model, opts),
				lsi.NewNRN(model),
			}
			for li, l := range learners {
				sums[li] += eval.Run(l, w.user, w.stream, w.test).NIAP
			}
		}
		for li := range labels {
			fig.Series[li].X = append(fig.Series[li].X, float64(pct))
			fig.Series[li].Y = append(fig.Series[li].Y, sums[li]/float64(h.Cfg.Runs))
		}
	}
	return fig
}
