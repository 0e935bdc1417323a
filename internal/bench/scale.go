package bench

import (
	"fmt"
	"math/rand"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/eval"
	"mmprofile/internal/index"
	"mmprofile/internal/sim"
	"mmprofile/internal/vsm"
)

// ScaleFigure measures per-document matching cost as the subscriber
// population grows, for the inverted profile index versus the naive
// every-vector scan — the engineering claim behind the paper's Section 4.3
// remark that "the filtering cost is not linearly proportional to the
// number of vectors since well-known indexing techniques are applicable".
// y is microseconds per published document (lower is better). Profiles
// are MM profiles trained on real feedback, so vector counts and term
// distributions are realistic.
func (h *Harness) ScaleFigure(populations []int) Figure {
	if len(populations) == 0 {
		populations = []int{50, 100, 250, 500, 1000}
	}
	ds := h.Dataset()
	fig := Figure{
		ID:     "scale",
		Title:  "Matching cost vs subscriber count (µs per document)",
		XLabel: "subscribers",
		YLabel: "us-per-doc",
	}
	idxSeries := Series{Label: "index"}
	bruteSeries := Series{Label: "brute-force"}

	maxPop := populations[len(populations)-1]
	rng := rand.New(rand.NewSource(h.Cfg.BaseSeed))
	train, probe := ds.Split(rng.Int63(), h.Cfg.TrainDocs)
	if len(probe) > 100 {
		probe = probe[:100]
	}

	// Train the largest population once; prefixes give the smaller ones.
	// Training streams are short (120 docs): the point is realistic
	// profiles, not peak effectiveness.
	type profile struct {
		user string
		vecs []vsm.Vector
	}
	profiles := make([]profile, maxPop)
	for i := range profiles {
		u := sim.NewUser(sim.RandomTopInterests(rng, ds, 1+rng.Intn(2))...)
		mm := core.NewDefault()
		eval.Train(mm, u, sim.Stream(rng, train, 120))
		profiles[i] = profile{user: fmt.Sprintf("u%05d", i), vecs: mm.ProfileVectors()}
	}

	for _, pop := range populations {
		if pop > maxPop {
			pop = maxPop
		}
		ix := index.New()
		var flat []vsm.Vector
		for _, p := range profiles[:pop] {
			ix.SetUser(p.user, p.vecs)
			flat = append(flat, p.vecs...)
		}

		start := time.Now()
		for _, d := range probe {
			ix.Match(d.Vec, h.Cfg.Theta)
		}
		idxPerDoc := float64(time.Since(start).Microseconds()) / float64(len(probe))

		start = time.Now()
		for _, d := range probe {
			hits := 0
			for _, pv := range flat {
				if vsm.Cosine(pv, d.Vec) >= h.Cfg.Theta {
					hits++
				}
			}
			_ = hits
		}
		brutePerDoc := float64(time.Since(start).Microseconds()) / float64(len(probe))

		idxSeries.X = append(idxSeries.X, float64(pop))
		idxSeries.Y = append(idxSeries.Y, idxPerDoc)
		bruteSeries.X = append(bruteSeries.X, float64(pop))
		bruteSeries.Y = append(bruteSeries.Y, brutePerDoc)
	}
	fig.Series = []Series{idxSeries, bruteSeries}
	return fig
}
