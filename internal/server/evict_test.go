package server

import (
	"strings"
	"testing"
	"time"

	"mmprofile/internal/metrics"
)

// TestDropEvictor drives the -evict-drop-rate policy over a real sketch:
// a subscriber must breach the rate limit for the full streak of
// consecutive windows before its sessions are kicked, a slow dropper is
// never kicked, and a breach that recovers resets the streak.
func TestDropEvictor(t *testing.T) {
	reg := metrics.NewRegistry()
	sk := metrics.TopK[string](reg, "subscriber_drops", "", 16, metrics.FormatString)
	var kicked []string
	e := newDropEvictor(5, 3, func(user, reason string) int {
		kicked = append(kicked, user)
		if !strings.Contains(reason, "limit 5.0/s") {
			t.Errorf("reason missing the limit: %q", reason)
		}
		return 1
	})

	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	step := func(aliceDrops, bobDrops int) {
		for i := 0; i < aliceDrops; i++ {
			sk.Offer("alice", 1)
		}
		for i := 0; i < bobDrops; i++ {
			sk.Offer("bob", 1)
		}
		drops, _ := reg.Top("subscriber_drops", evictScanK)
		e.tick(now, drops)
		now = now.Add(time.Second)
	}

	// Tick 1 baselines; ticks 2-3 breach but the streak (2) is short of 3.
	step(10, 1)
	step(10, 1)
	step(10, 1)
	if len(kicked) != 0 {
		t.Fatalf("kicked %v before the streak completed", kicked)
	}
	// Tick 4 completes the streak.
	step(10, 1)
	if len(kicked) != 1 || kicked[0] != "alice" {
		t.Fatalf("kicked = %v, want [alice]", kicked)
	}
	// The kick reset alice's streak: two more breaching ticks stay quiet...
	step(10, 1)
	step(10, 1)
	// ...then a quiet window resets again, so the next two breaches don't
	// reach the threshold either.
	step(0, 0)
	step(10, 1)
	step(10, 1)
	if len(kicked) != 1 {
		t.Fatalf("kicked = %v after recovery, want just the first", kicked)
	}
	// Bob never breached 5/s.
	for _, u := range kicked {
		if u == "bob" {
			t.Fatal("slow dropper was kicked")
		}
	}
}
