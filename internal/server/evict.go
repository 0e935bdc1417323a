package server

import (
	"fmt"
	"time"

	"mmprofile/internal/metrics"
)

// evictScanK bounds how many of the hottest droppers are examined per
// tick; a subscriber pathological enough to evict is by definition near
// the top of the drops dimension.
const evictScanK = 32

// dropEvictor implements mmserver -evict-drop-rate: every tick
// it diffs the subscriber_drops sketch against the previous tick and
// closes the push sessions of any subscriber whose drop rate stayed
// above the limit for `windows` consecutive ticks. Sketch counts are
// cumulative, so the per-tick delta is exact for a key tracked across
// both ticks; a key that just entered the sketch (whose count may carry
// takeover error) is baselined for one tick before being judged. Only
// the goroutine that ticks the server touches the evictor, so it needs no lock.
type dropEvictor struct {
	limit   float64 // drops/second that counts as a breach
	windows int     // consecutive breaching ticks before a kick
	kick    func(user, reason string) int

	lastAt time.Time
	last   map[string]float64 // previous tick's cumulative counts
	streak map[string]int
}

func newDropEvictor(limit float64, windows int, kick func(user, reason string) int) *dropEvictor {
	if windows < 1 {
		windows = 1
	}
	return &dropEvictor{
		limit:   limit,
		windows: windows,
		kick:    kick,
		last:    make(map[string]float64),
		streak:  make(map[string]int),
	}
}

// tick advances the evictor by one window using the current top
// evictScanK entries of the drops dimension.
func (e *dropEvictor) tick(now time.Time, snap metrics.TopSnapshot) {
	cur := make(map[string]float64, len(snap.Entries))
	for _, ent := range snap.Entries {
		cur[ent.Key] = ent.Count
	}
	if dt := now.Sub(e.lastAt).Seconds(); !e.lastAt.IsZero() && dt > 0 {
		for user, count := range cur {
			prev, seen := e.last[user]
			if !seen {
				continue // baseline new sketch entries before judging them
			}
			rate := (count - prev) / dt
			if rate <= e.limit {
				delete(e.streak, user)
				continue
			}
			e.streak[user]++
			if e.streak[user] >= e.windows {
				e.kick(user, fmt.Sprintf("drop rate %.1f/s for %d consecutive windows (limit %.1f/s)",
					rate, e.streak[user], e.limit))
				delete(e.streak, user)
			}
		}
		// A key that fell out of the top-K has stopped dropping fast.
		for user := range e.streak {
			if _, ok := cur[user]; !ok {
				delete(e.streak, user)
			}
		}
	}
	e.lastAt = now
	e.last = cur
}
