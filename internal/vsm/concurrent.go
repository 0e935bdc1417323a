package vsm

import (
	"sync"
	"sync/atomic"

	"mmprofile/internal/intern"
)

// dfShardBits/dfShards size the ConcurrentStats stripe array. 64 stripes
// matches the intern dictionary: enough that publishers hashing to the same
// stripe is rare at any plausible worker count, few enough that the fixed
// footprint stays trivial.
const (
	dfShardBits = 6
	dfShards    = 1 << dfShardBits
	dfShardMask = dfShards - 1
)

// ConcurrentStats is a Stats variant safe for concurrent Add and read use:
// the document count and total length are atomics, and the per-term
// document frequencies are striped over independently read/write-locked
// map shards (term → stripe by intern.Hash). It satisfies StatsView, so
// TFIDF and Bel weighting work against it unchanged.
//
// Readers are deliberately not snapshot-consistent with writers: a Weight
// computed while another document is being added may see the new N but not
// yet that document's df bumps (or vice versa). For incremental collection
// statistics over thousands of documents this is exactly as accurate as
// the paper's "statistics as they stand" prescription requires, and it is
// what lets publishes vectorize in parallel instead of serializing on one
// statistics mutex.
type ConcurrentStats struct {
	n        atomic.Int64
	totalLen atomic.Int64
	shards   [dfShards]dfShard
}

type dfShard struct {
	mu sync.RWMutex
	df map[string]int
}

// NewConcurrentStats returns empty concurrent collection statistics.
func NewConcurrentStats() *ConcurrentStats {
	s := &ConcurrentStats{}
	for i := range s.shards {
		s.shards[i].df = make(map[string]int)
	}
	return s
}

// Add observes one document given as its (post-pipeline) term list,
// updating N, document frequencies, and the running average length. Safe
// for concurrent use with other Adds and with reads.
func (s *ConcurrentStats) Add(terms []string) {
	s.n.Add(1)
	s.totalLen.Add(int64(len(terms)))
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		sh := &s.shards[intern.Hash(t)&dfShardMask]
		sh.mu.Lock()
		sh.df[t]++
		sh.mu.Unlock()
	}
}

// N returns the number of documents observed.
func (s *ConcurrentStats) N() int { return int(s.n.Load()) }

// Stripes returns the number of independently locked DF stripes, for
// layout introspection.
func (s *ConcurrentStats) Stripes() int { return dfShards }

// DF returns the document frequency of term t.
func (s *ConcurrentStats) DF(t string) int {
	sh := &s.shards[intern.Hash(t)&dfShardMask]
	sh.mu.RLock()
	df := sh.df[t]
	sh.mu.RUnlock()
	return df
}

// VocabularySize returns the number of distinct terms observed.
func (s *ConcurrentStats) VocabularySize() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.df)
		sh.mu.RUnlock()
	}
	return n
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
// freezing a consistent-enough view (evaluation, serialization). Concurrent
// Adds during the copy may be partially included.
func (s *ConcurrentStats) Snapshot() *Stats {
	df := make(map[string]int, 1024)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for t, c := range sh.df {
			df[t] = c
		}
		sh.mu.RUnlock()
	}
	return &Stats{n: int(s.n.Load()), df: df, totalLen: int(s.totalLen.Load())}
}
