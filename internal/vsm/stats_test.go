package vsm

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentStatsParallelAdds hammers Add/DF/AvgLen from many
// goroutines (meaningful under -race) and checks the final totals.
func TestConcurrentStatsParallelAdds(t *testing.T) {
	s := NewStats()
	const (
		writers = 8
		perG    = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Add([]string{"shared", fmt.Sprintf("term%d-%d", g, i%17)})
				_ = s.DF("shared")
				_ = s.AvgLen()
				_ = s.N()
			}
		}(g)
	}
	wg.Wait()
	if got := s.N(); got != writers*perG {
		t.Errorf("N = %d, want %d", got, writers*perG)
	}
	if got := s.DF("shared"); got != writers*perG {
		t.Errorf("DF(shared) = %d, want %d", got, writers*perG)
	}
	if got, want := s.AvgLen(), 2.0; got != want {
		t.Errorf("AvgLen = %v, want %v", got, want)
	}
	if got, want := s.VocabularySize(), 1+writers*17; got != want {
		t.Errorf("VocabularySize = %d, want %d", got, want)
	}
	if wt := (Bel{Stats: s}).Weight("shared", 1, 2); wt <= 0 {
		t.Errorf("Bel weight = %v, want > 0", wt)
	}
}
