// Broadcast: profiles driving bandwidth allocation — the use the paper's
// opening sentence promises ("scheduling, bandwidth allocation, and
// routing decisions").
//
// Fifty users train MM profiles by relevance feedback. A broadcast server
// must then push 300 pages over a single channel: it estimates each page's
// demand by scoring it against every learned profile and builds a
// broadcast-disk schedule (hot pages repeat more often, square-root rule).
// The example compares user-perceived expected wait under that schedule
// against a profile-blind round-robin, and checks the learned demand
// against the ground truth the server never saw.
//
//	go run ./examples/broadcast
package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mmprofile/examples/broadcast/sched"
	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/eval"
	"mmprofile/internal/filter"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

const (
	numUsers    = 50
	numPages    = 300
	matchCutoff = 0.10
	judgments   = 500
)

func main() {
	ds := corpus.Generate(corpus.DefaultConfig()).Vectorize(text.NewPipeline())
	rng := rand.New(rand.NewSource(21))
	train, rest := ds.Split(rng.Int63(), 500)
	pages := rest[:numPages]

	// 1. Train one MM profile per user from feedback on the training
	//    stream. Interests are drawn Zipf-skewed across the top-level
	//    categories — real audiences cluster on popular topics, and that
	//    skew is exactly what demand-driven scheduling exploits.
	users := make([]*sim.User, numUsers)
	profiles := make([]*core.Profile, numUsers)
	for i := range users {
		users[i] = sim.NewUser(zipfInterests(rng, ds, 1+rng.Intn(2))...)
		profiles[i] = core.NewDefault()
		eval.Train(profiles[i], users[i], sim.Stream(rng, train, judgments))
	}
	fmt.Printf("trained %d MM profiles (%d judgments each)\n\n", numUsers, judgments)

	// 2. Estimate each page's demand from the learned profiles, and record
	//    the ground truth (how many users are actually interested) for
	//    validation.
	items := make([]sched.Item, len(pages))
	truth := make([]float64, len(pages))
	estimate := make([]float64, len(pages))
	// The estimator is rank-based: each user votes for the pages in the
	// top fifth of HER OWN score distribution (subject to an absolute
	// floor). Absolute cosines are not comparable across profiles — a
	// user with broad interests scores everything lower than a specialist
	// does — but each user's ranking of the pages is reliable.
	scores := make([][]float64, numUsers)
	for i, p := range profiles {
		scores[i] = make([]float64, len(pages))
		for j, page := range pages {
			scores[i][j] = p.Score(page.Vec)
		}
	}
	for j, page := range pages {
		var demand float64
		for i := range profiles {
			cut := percentile(scores[i], 80)
			if cut < matchCutoff {
				cut = matchCutoff
			}
			if scores[i][j] >= cut {
				demand++
			}
			if users[i].Feedback(page) == filter.Relevant {
				truth[j]++
			}
		}
		estimate[j] = demand
		items[j] = sched.Item{ID: int64(page.ID), Demand: demand}
	}
	// Content-based smoothing: a page's demand estimate is pooled with its
	// most similar pages (pages about the same thing attract the same
	// audience), which cuts the per-page estimation noise without using
	// any ground truth.
	smoothed := smoothByContent(pages, estimate, 8)
	for j := range items {
		items[j].Demand = smoothed[j]
	}
	fmt.Printf("demand correlation with truth: raw %.3f, content-smoothed %.3f\n",
		correlation(estimate, truth), correlation(smoothed, truth))
	fmt.Printf("estimated demand: mean %.1f, p10 %.0f, p90 %.0f; true: mean %.1f, p10 %.0f, p90 %.0f\n\n",
		eval.Mean(estimate), percentile(estimate, 10), percentile(estimate, 90),
		eval.Mean(truth), percentile(truth, 10), percentile(truth, 90))

	// 3. Build the schedules and compare user-perceived latency, weighting
	//    by the TRUE demand (what users actually want, not what the server
	//    believes).
	trueItems := make([]sched.Item, len(pages))
	for j, page := range pages {
		trueItems[j] = sched.Item{ID: int64(page.ID), Demand: truth[j]}
	}
	flat := sched.FlatSchedule(items)
	disk, err := sched.Build(items, sched.Config{Disks: 3, MaxFrequency: 6})
	if err != nil {
		panic(err)
	}
	oracle, err := sched.Build(trueItems, sched.DefaultConfig())
	if err != nil {
		panic(err)
	}

	flatLat := flat.ExpectedLatency(trueItems)
	diskLat := disk.ExpectedLatency(trueItems)
	oracleLat := oracle.ExpectedLatency(trueItems)
	fmt.Printf("%-34s %10s %10s\n", "schedule", "period", "E[wait]")
	fmt.Printf("%-34s %10d %10.1f\n", "round-robin (profile-blind)", flat.Period(), flatLat)
	fmt.Printf("%-34s %10d %10.1f\n", "broadcast-disk (learned demand)", disk.Period(), diskLat)
	fmt.Printf("%-34s %10d %10.1f\n", "broadcast-disk (oracle demand)", oracle.Period(), oracleLat)
	fmt.Printf("\nlearned profiles cut expected wait by %.0f%%; the oracle bound is %.0f%%.\n",
		100*(1-diskLat/flatLat), 100*(1-oracleLat/flatLat))
}

// zipfInterests draws n distinct top-level categories with probability
// ∝ 1/(rank+1)^1.3, modelling a skewed audience.
func zipfInterests(rng *rand.Rand, ds *corpus.Dataset, n int) []corpus.Category {
	tops := ds.TopCategories()
	weights := make([]float64, len(tops))
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 2.0)
	}
	var out []corpus.Category
	taken := make([]bool, len(tops))
	for len(out) < n {
		var total float64
		for i, w := range weights {
			if !taken[i] {
				total += w
			}
		}
		u := rng.Float64() * total
		for i, w := range weights {
			if taken[i] {
				continue
			}
			u -= w
			if u <= 0 {
				taken[i] = true
				out = append(out, tops[i])
				break
			}
		}
	}
	return out
}

// smoothByContent replaces each page's demand estimate with the mean over
// itself and its k most-similar pages (cosine on the page vectors).
func smoothByContent(pages []corpus.Document, raw []float64, k int) []float64 {
	type nb struct {
		sim float64
		idx int
	}
	out := make([]float64, len(raw))
	for i := range pages {
		nbs := make([]nb, 0, len(pages)-1)
		for j := range pages {
			if i == j {
				continue
			}
			nbs = append(nbs, nb{sim: vsmCosine(pages[i], pages[j]), idx: j})
		}
		sort.Slice(nbs, func(a, b int) bool { return nbs[a].sim > nbs[b].sim })
		if len(nbs) > k {
			nbs = nbs[:k]
		}
		sum := raw[i]
		for _, n := range nbs {
			sum += raw[n.idx]
		}
		out[i] = sum / float64(len(nbs)+1)
	}
	return out
}

func vsmCosine(a, b corpus.Document) float64 {
	return vsm.Cosine(a.Vec, b.Vec)
}

// percentile returns the p-th percentile (nearest-rank) of the sample.
func percentile(xs []float64, p int) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := p * len(sorted) / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// correlation returns the Pearson correlation of two equal-length samples.
func correlation(a, b []float64) float64 {
	ma, mb := eval.Mean(a), eval.Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
