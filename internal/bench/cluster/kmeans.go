// Package cluster implements offline (batch) profile construction by
// spherical k-means, the style of clustering the paper rules out for
// filtering environments because it "requires all data to be stored and
// available" (Section 1.2). It exists as an upper-bound baseline: MM
// builds its clusters in one incremental pass; k-means sees every judged
// document at once and iterates to convergence. Comparing the two
// quantifies what MM's single-pass operation actually costs.
package cluster

import (
	"math/rand"

	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// KMeansOptions configures batch profile construction.
type KMeansOptions struct {
	// K is the number of centroids. K ≤ 0 selects K automatically as
	// ⌈√(n/2)⌉ (a standard rule of thumb), capped at n.
	K int
	// MaxIter bounds Lloyd iterations (default 25).
	MaxIter int
	// MaxTerms caps each centroid's term count (default 100, the paper's
	// vector size).
	MaxTerms int
	// Seed makes initialization deterministic.
	Seed int64
}

// KMeans is a batch-built profile: it buffers every judged document and
// clusters the relevant ones with spherical k-means when Flush is called
// (the evaluator calls Flush when training completes, the same hook batch
// Rocchio uses). Negative documents are ignored — like NRN, the batch
// profile models only relevant concepts. Implements filter.Learner and
// eval.Flusher.
type KMeans struct {
	opts      KMeansOptions
	buffered  []vsm.Vector
	centroids []vsm.Vector
}

func init() {
	filter.Register("KMeans", func() filter.Learner {
		return NewKMeans(KMeansOptions{Seed: 1})
	})
}

// NewKMeans returns an empty batch-clustering profile.
func NewKMeans(opts KMeansOptions) *KMeans {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 25
	}
	if opts.MaxTerms <= 0 {
		opts.MaxTerms = vsm.MaxDocumentTerms
	}
	return &KMeans{opts: opts}
}

// Name implements filter.Learner.
func (k *KMeans) Name() string { return "KMeans" }

// Observe implements filter.Learner: relevant documents are buffered for
// the batch pass.
func (k *KMeans) Observe(v vsm.Vector, fd filter.Feedback) {
	if fd != filter.Relevant || v.IsZero() {
		return
	}
	k.buffered = append(k.buffered, v.Clone())
}

// Flush runs the clustering over everything buffered so far and replaces
// the centroid set. Buffered documents are retained (batch algorithms
// keep all data — that is exactly their cost).
func (k *KMeans) Flush() {
	if len(k.buffered) == 0 {
		return
	}
	kk := k.opts.K
	if kk <= 0 {
		kk = autoK(len(k.buffered))
	}
	if kk > len(k.buffered) {
		kk = len(k.buffered)
	}
	k.centroids = sphericalKMeans(k.buffered, kk, k.opts.MaxIter, k.opts.MaxTerms, k.opts.Seed)
}

// autoK is the ⌈√(n/2)⌉ rule of thumb.
func autoK(n int) int {
	k := 1
	for k*k < n/2 {
		k++
	}
	return k
}

// Score implements filter.Learner: max cosine over centroids.
func (k *KMeans) Score(v vsm.Vector) float64 {
	best := 0.0
	for _, c := range k.centroids {
		if s := vsm.Cosine(c, v); s > best {
			best = s
		}
	}
	return best
}

// ProfileSize implements filter.Learner.
func (k *KMeans) ProfileSize() int { return len(k.centroids) }

// ProfileVectors returns copies of the k centroids.
func (k *KMeans) ProfileVectors() []vsm.Vector {
	out := make([]vsm.Vector, len(k.centroids))
	for i, c := range k.centroids {
		out[i] = c.Clone()
	}
	return out
}

// Reset implements filter.Learner.
func (k *KMeans) Reset() {
	k.buffered = nil
	k.centroids = nil
}

// sphericalKMeans clusters unit vectors by cosine similarity: k-means++-
// style seeding, then Lloyd iterations with centroid renormalization.
func sphericalKMeans(docs []vsm.Vector, k, maxIter, maxTerms int, seed int64) []vsm.Vector {
	rng := rand.New(rand.NewSource(seed))

	// Seeding: first centroid uniform, then proportional to (1 − best
	// similarity) — the spherical analogue of k-means++ distance weighting.
	centroids := make([]vsm.Vector, 0, k)
	centroids = append(centroids, docs[rng.Intn(len(docs))].Clone())
	for len(centroids) < k {
		weights := make([]float64, len(docs))
		var total float64
		for i, d := range docs {
			best := 0.0
			for _, c := range centroids {
				if s := vsm.Cosine(c, d); s > best {
					best = s
				}
			}
			w := 1 - best
			if w < 0 {
				w = 0
			}
			weights[i] = w
			total += w
		}
		if total == 0 {
			// All documents identical to some centroid; duplicate one.
			centroids = append(centroids, docs[rng.Intn(len(docs))].Clone())
			continue
		}
		u := rng.Float64() * total
		for i, w := range weights {
			u -= w
			if u <= 0 {
				centroids = append(centroids, docs[i].Clone())
				break
			}
		}
	}

	assign := make([]int, len(docs))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, d := range docs {
			best, bestIdx := -1.0, 0
			for j, c := range centroids {
				if s := vsm.Cosine(c, d); s > best {
					best, bestIdx = s, j
				}
			}
			if assign[i] != bestIdx {
				assign[i] = bestIdx
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids as normalized member sums.
		sums := make([]vsm.Vector, len(centroids))
		counts := make([]int, len(centroids))
		for i, d := range docs {
			j := assign[i]
			sums[j] = vsm.Combine(sums[j], 1, d, 1)
			counts[j]++
		}
		for j := range centroids {
			if counts[j] == 0 {
				// Empty cluster: reseed on a random document.
				centroids[j] = docs[rng.Intn(len(docs))].Clone()
				continue
			}
			centroids[j] = sums[j].Truncated(maxTerms).Normalized()
		}
	}
	return centroids
}
