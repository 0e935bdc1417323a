// Package filter defines the interface every profile-learning algorithm in
// this repository implements, so that the evaluator and the benchmark
// harness can treat the paper's MM algorithm and its baselines (RI, RG,
// batch Rocchio, NRN) uniformly. The dissemination server holds MM profiles
// only (core.Profile, built by name with core.NewNamed).
package filter

import (
	"fmt"
	"sort"
	"sync"

	"mmprofile/internal/vsm"
)

// Feedback is a binary relevance judgment, the f_d of the paper.
type Feedback int

const (
	// Relevant is positive feedback (f_d = +1).
	Relevant Feedback = 1
	// NotRelevant is negative feedback (f_d = −1).
	NotRelevant Feedback = -1
)

// String implements fmt.Stringer.
func (f Feedback) String() string {
	switch f {
	case Relevant:
		return "relevant"
	case NotRelevant:
		return "not-relevant"
	default:
		return fmt.Sprintf("Feedback(%d)", int(f))
	}
}

// Learner is an incremental profile learner: it consumes a stream of
// (document vector, feedback) pairs and scores unseen documents by
// predicted relevance. Learners are not safe for concurrent use; callers
// that share one across goroutines must serialize access.
type Learner interface {
	// Name identifies the algorithm in reports ("MM", "RI", "RG", ...).
	Name() string
	// Observe incorporates one relevance judgment into the profile.
	Observe(v vsm.Vector, fd Feedback)
	// Score returns the predicted relevance of a document, higher meaning
	// more relevant. Score does not modify the profile, so a "frozen"
	// profile in the paper's sense is simply one that is no longer given
	// judgments.
	Score(v vsm.Vector) float64
	// ProfileSize returns the number of vectors representing the profile,
	// the storage metric of the paper's Figure 7.
	ProfileSize() int
	// Reset discards all learned state.
	Reset()
}

// Factory constructs a fresh learner with algorithm-default parameters.
type Factory func() Learner

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named learner constructor; it panics on duplicates, which
// are always programming errors.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("filter: duplicate learner %q", name))
	}
	registry[name] = f
}

// New constructs a registered learner by name.
func New(name string) (Learner, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("filter: unknown learner %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered learners in sorted order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
