package vsm

import (
	"sync"
	"sync/atomic"
)

// Stats accumulates the collection statistics that weighting schemes need:
// the number of documents N, per-term document frequencies df_t, and the
// average document length. The paper computes these with a prior pass over
// the collection (Section 5.1, footnote 4) but notes that a real filtering
// system must gather them incrementally; Stats supports both uses — call
// Add for every document as it arrives, or over the whole collection up
// front.
//
// Stats is safe for concurrent Add and reads: the document count and total
// length are atomics, and the per-term document frequencies are one map
// behind one read/write lock, which Add takes once per document and DF once
// per lookup. Readers are deliberately not snapshot-consistent with
// writers: a Weight computed while another document is being added may see
// the new N but not yet that document's df bumps (or vice versa). For
// incremental collection statistics over thousands of documents this is
// exactly as accurate as the paper's "statistics as they stand"
// prescription requires, and it is what lets a publish weight its terms
// under read locks instead of holding one statistics mutex for the whole
// document.
type Stats struct {
	n        atomic.Int64
	totalLen atomic.Int64
	mu       sync.RWMutex
	df       map[string]int
}

// NewStats returns empty collection statistics.
func NewStats() *Stats {
	return &Stats{df: make(map[string]int)}
}

// Add observes one document given as its (post-pipeline) term list,
// updating N, document frequencies, and the running average length.
func (s *Stats) Add(terms []string) {
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
func (s *Stats) N() int { return int(s.n.Load()) }

// DF returns the document frequency of term t.
func (s *Stats) DF(t string) int {
	s.mu.RLock()
	df := s.df[t]
	s.mu.RUnlock()
	return df
}

// VocabularySize returns the number of distinct terms observed.
func (s *Stats) VocabularySize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.df)
}

// AvgLen returns the average document length in terms; it is 0 before any
// document has been observed.
func (s *Stats) AvgLen() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.totalLen.Load()) / float64(n)
}

// Clone returns an independent copy of the statistics, used to freeze a
// snapshot for evaluation while the live copy keeps accumulating. N and
// the total length are read apart from the df map, so an Add racing the
// copy may be partially included.
func (s *Stats) Clone() *Stats {
	c := NewStats()
	s.mu.RLock()
	for t, n := range s.df {
		c.df[t] = n
	}
	s.mu.RUnlock()
	c.n.Store(s.n.Load())
	c.totalLen.Store(s.totalLen.Load())
	return c
}
