// Package sched implements profile-driven broadcast scheduling — the use
// the paper's opening sentence gives user profiles: "making scheduling,
// bandwidth allocation, and routing decisions" in push-based delivery.
//
// The scheduler is the classic broadcast-disk construction (Acharya,
// Alonso, Franklin, Zdonik, SIGMOD '95): items are partitioned into
// "disks" by demand, each disk spins at a relative frequency derived from
// its demand (the square-root rule, which minimizes expected wait), disks
// are split into chunks, and chunks are interleaved into minor cycles to
// produce one periodic schedule with evenly spaced repetitions of every
// item. Demand comes from aggregating subscriber profiles (see
// examples/broadcast).
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Item is one broadcastable unit (a page, a bucket of pages) with the
// aggregate demand subscriber profiles assign to it.
type Item struct {
	ID     int64
	Demand float64
}

// Config controls schedule construction.
type Config struct {
	// Disks is the number of popularity tiers (≥ 1). More disks track the
	// demand skew more closely at the cost of a longer period.
	Disks int
	// MaxFrequency caps a disk's relative frequency, bounding the
	// schedule's period (0 = default 8).
	MaxFrequency int
}

// DefaultConfig returns a 3-disk configuration with frequency cap 8.
func DefaultConfig() Config { return Config{Disks: 3, MaxFrequency: 8} }

// Schedule is a periodic broadcast program: Slots lists the item broadcast
// in each time slot of one period.
type Schedule struct {
	Slots []int64
	// freq maps item id → broadcasts per period.
	freq map[int64]int
}

// Build constructs a broadcast-disk schedule for the items. Items with
// non-positive demand are treated as demand 0 (they still get broadcast,
// on the slowest disk). It fails on empty input or bad configuration.
func Build(items []Item, cfg Config) (*Schedule, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("sched: no items")
	}
	if cfg.Disks < 1 {
		return nil, fmt.Errorf("sched: need at least one disk, got %d", cfg.Disks)
	}
	if cfg.MaxFrequency <= 0 {
		cfg.MaxFrequency = 8
	}
	disks := cfg.Disks
	if disks > len(items) {
		disks = len(items)
	}

	// Hottest first; stable on id for determinism.
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Demand != sorted[j].Demand {
			return sorted[i].Demand > sorted[j].Demand
		}
		return sorted[i].ID < sorted[j].ID
	})

	// Equal-count tiers.
	tiers := make([][]Item, disks)
	for i, it := range sorted {
		d := i * disks / len(sorted)
		tiers[d] = append(tiers[d], it)
	}

	// Square-root rule: relative frequency ∝ √(mean demand of tier),
	// normalized so the coldest tier with any demand spins once, capped,
	// and ≥ 1. Tiers whose demand is entirely zero stay at frequency 1
	// (everything must still be broadcast).
	freqs := make([]int, disks)
	base := 0.0
	for i := disks - 1; i >= 0; i-- {
		if m := meanDemand(tiers[i]); m > 0 {
			base = math.Sqrt(m) // tier means are non-increasing, so this is the smallest positive one
			break
		}
	}
	for i, tier := range tiers {
		f := 1.0
		if m := meanDemand(tier); m > 0 && base > 0 {
			f = math.Sqrt(m) / base
		}
		fi := int(math.Round(f))
		if fi < 1 {
			fi = 1
		}
		if fi > cfg.MaxFrequency {
			fi = cfg.MaxFrequency
		}
		freqs[i] = fi
	}

	// Interleave: maxChunks = lcm(freqs); disk i is split into
	// maxChunks/freqs[i] chunks; minor cycle j broadcasts chunk
	// (j mod numChunks_i) of every disk.
	maxChunks := 1
	for _, f := range freqs {
		maxChunks = lcm(maxChunks, f)
	}
	chunks := make([][][]Item, disks)
	for i, tier := range tiers {
		n := maxChunks / freqs[i]
		chunks[i] = splitChunks(tier, n)
	}

	s := &Schedule{freq: make(map[int64]int, len(items))}
	for j := 0; j < maxChunks; j++ {
		for i := 0; i < disks; i++ {
			chunk := chunks[i][j%len(chunks[i])]
			for _, it := range chunk {
				s.Slots = append(s.Slots, it.ID)
				s.freq[it.ID]++
			}
		}
	}
	return s, nil
}

func meanDemand(items []Item) float64 {
	if len(items) == 0 {
		return 0
	}
	var sum float64
	for _, it := range items {
		if it.Demand > 0 {
			sum += it.Demand
		}
	}
	return sum / float64(len(items))
}

// splitChunks partitions items into n nearly equal chunks (n ≥ 1; chunks
// may be empty only when n > len(items)).
func splitChunks(items []Item, n int) [][]Item {
	out := make([][]Item, n)
	for i := range out {
		lo := i * len(items) / n
		hi := (i + 1) * len(items) / n
		out[i] = items[lo:hi]
	}
	return out
}

// Period returns the schedule length in slots.
func (s *Schedule) Period() int { return len(s.Slots) }

// Frequency returns how many times an item appears per period.
func (s *Schedule) Frequency(id int64) int { return s.freq[id] }

// ExpectedLatency returns the demand-weighted mean wait, in slots, for a
// request arriving at a uniformly random point in the cycle: for each
// item, the mean over the cycle of the distance to its next broadcast,
// weighted by the item's demand share. Items never broadcast (impossible
// by construction) would make the latency infinite.
func (s *Schedule) ExpectedLatency(items []Item) float64 {
	var totalDemand, weighted float64
	for _, it := range items {
		d := it.Demand
		if d <= 0 {
			continue
		}
		totalDemand += d
		weighted += d * s.meanWait(it.ID)
	}
	if totalDemand == 0 {
		return 0
	}
	return weighted / totalDemand
}

// meanWait computes the exact mean distance to the next broadcast of id
// over all cycle positions: with gaps g_1..g_k between consecutive
// broadcasts (Σg = period), the mean is Σ g_i·(g_i+1) / (2·period).
func (s *Schedule) meanWait(id int64) float64 {
	period := len(s.Slots)
	positions := make([]int, 0, s.freq[id])
	for p, slot := range s.Slots {
		if slot == id {
			positions = append(positions, p)
		}
	}
	if len(positions) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i, p := range positions {
		next := positions[(i+1)%len(positions)]
		gap := next - p
		if gap <= 0 {
			gap += period
		}
		// A request landing in any of the gap slots before the broadcast
		// waits gap, gap−1, …, 1 slots respectively.
		sum += float64(gap) * float64(gap+1) / 2
	}
	return sum / float64(period)
}

// FlatSchedule returns the round-robin baseline: every item once per
// period, in id order — what a push server does without profile-derived
// demand knowledge.
func FlatSchedule(items []Item) *Schedule {
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	s := &Schedule{freq: make(map[int64]int, len(sorted))}
	for _, it := range sorted {
		s.Slots = append(s.Slots, it.ID)
		s.freq[it.ID] = 1
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }
