package vsm

import (
	"sync"
	"sync/atomic"
)

// ConcurrentStats is a Stats variant safe for concurrent Add and read use:
// the document count and total length are atomics, and the per-term
// document frequencies are one map behind one read/write lock, which Add
// takes once per document. It satisfies StatsView, so TFIDF and Bel
// weighting work against it unchanged.
//
// Readers are deliberately not snapshot-consistent with writers: a Weight
// computed while another document is being added may see the new N but not
// yet that document's df bumps (or vice versa). For incremental collection
// statistics over thousands of documents this is exactly as accurate as
// the paper's "statistics as they stand" prescription requires, and it is
// what lets a publish weight its terms under read locks instead of holding
// one statistics mutex for the whole document.
type ConcurrentStats struct {
	n        atomic.Int64
	totalLen atomic.Int64
	mu       sync.RWMutex
	df       map[string]int
}

// NewConcurrentStats returns empty concurrent collection statistics.
func NewConcurrentStats() *ConcurrentStats {
	return &ConcurrentStats{df: make(map[string]int)}
}

// Add observes one document given as its (post-pipeline) term list,
// updating N, document frequencies, and the running average length. Safe
// for concurrent use with other Adds and with reads.
func (s *ConcurrentStats) Add(terms []string) {
	s.n.Add(1)
	s.totalLen.Add(int64(len(terms)))
	seen := make(map[string]bool, len(terms))
	s.mu.Lock()
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			s.df[t]++
		}
	}
	s.mu.Unlock()
}

// N returns the number of documents observed.
func (s *ConcurrentStats) N() int { return int(s.n.Load()) }

// DF returns the document frequency of term t.
func (s *ConcurrentStats) DF(t string) int {
	s.mu.RLock()
	df := s.df[t]
	s.mu.RUnlock()
	return df
}

// VocabularySize returns the number of distinct terms observed.
func (s *ConcurrentStats) VocabularySize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.df)
}

// AvgLen returns the average document length in terms; it is 0 before any
// document has been observed.
func (s *ConcurrentStats) AvgLen() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.totalLen.Load()) / float64(n)
}

// Snapshot copies the statistics into a plain single-writer *Stats, for
// freezing a consistent-enough view (evaluation, serialization). N and the
// total length are read apart from the df map, so an Add racing the copy
// may be partially included.
func (s *ConcurrentStats) Snapshot() *Stats {
	s.mu.RLock()
	df := make(map[string]int, len(s.df))
	for t, c := range s.df {
		df[t] = c
	}
	s.mu.RUnlock()
	return &Stats{n: int(s.n.Load()), df: df, totalLen: int(s.totalLen.Load())}
}
