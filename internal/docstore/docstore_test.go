package docstore

import (
	"fmt"
	"sync"
	"testing"

	"mmprofile/internal/vsm"
)

func v(term string) vsm.Retained {
	return vsm.Retain(vsm.FromMap(map[string]float64{term: 1}).Normalized())
}

// TestDocKeyOffsetInvariant pins what tells one document from another in
// the ring: a slot answers only for the id it holds. Document 0 is
// retrievable once put and absent before — an empty slot's zero id is not
// document 0 — and an id whose slot holds an older document (not assigned
// yet) or a newer one (evicted) misses instead of aliasing to it.
func TestDocKeyOffsetInvariant(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := New(4, shards)
			if _, ok := s.Get(0); ok || s.Len() != 0 {
				t.Fatalf("an empty store holds document 0 (Len %d)", s.Len())
			}
			terms := []string{"a", "b", "c", "d", "e", "f"}
			evictions := 0
			for i, term := range terms {
				id, evicted := s.Put(v(term), "")
				if id != int64(i) {
					t.Fatalf("doc id = %d, want %d", id, i)
				}
				if evicted {
					evictions++
				}
				// The slots of ids not assigned yet hold nothing, or — from
				// the fifth document on — the document retention ids older.
				for next := id + 1; next <= id+4; next++ {
					if rec, ok := s.Get(next); ok {
						t.Fatalf("after doc %d, Get(%d) answers with doc %d", id, next, rec.ID)
					}
				}
			}
			// Retention 4: ids 2..5 retained, ids 0..1 evicted — regardless
			// of the shard count, because shards divide the retention.
			for i, term := range terms {
				rec, ok := s.Get(int64(i))
				if i < 2 {
					if ok {
						t.Errorf("doc %d should have been evicted", i)
					}
					continue
				}
				if !ok {
					t.Fatalf("doc %d not retained", i)
				}
				if vec := rec.Doc.Vector(); vec.Weight(term) == 0 {
					t.Errorf("doc %d returned the wrong vector: %v", i, vec)
				}
			}
			if evictions != 2 {
				t.Errorf("evictions = %d, want 2", evictions)
			}
			if s.Len() != 4 {
				t.Errorf("Len = %d, want 4", s.Len())
			}
			// Internal shape: every filled slot is the one its record's id
			// maps to.
			for i := range s.shards {
				for k := range s.shards[i].docs {
					sl := &s.shards[i].docs[k]
					if _, at := s.at(sl.rec.ID); sl.filled && at != sl {
						t.Errorf("shard %d slot %d holds doc %d, whose slot is another", i, k, sl.rec.ID)
					}
				}
			}
		})
	}
}

// TestShardClamp pins the divisibility clamp: the shard count is the
// largest power of two <= the suggestion that divides retention, so the
// sharded ring evicts exactly like a single global FIFO.
func TestShardClamp(t *testing.T) {
	cases := []struct {
		retention, want, suggest int
	}{
		{4096, 16, 16},
		{4096, 8, 8},
		{3, 1, 16},  // odd retention: only 1 divides
		{6, 2, 16},  // 2 divides, 4 does not
		{100, 4, 8}, // 4 divides 100, 8 does not
		{8, 8, 100}, // suggestion rounds down to pow2 first
		{5, 1, 0},   // non-positive suggestion means 1
	}
	for _, c := range cases {
		s := New(c.retention, c.suggest)
		if s.Shards() != c.want {
			t.Errorf("New(%d, %d).Shards() = %d, want %d",
				c.retention, c.suggest, s.Shards(), c.want)
		}
		if s.Retention() != c.retention {
			t.Errorf("New(%d, %d).Retention() = %d", c.retention, c.suggest, s.Retention())
		}
	}
}

// TestExactFIFOAcrossShards checks the retention window stays exact under
// sharding: after publishing k documents, exactly the last min(k, retention)
// are retrievable.
func TestExactFIFOAcrossShards(t *testing.T) {
	const retention = 12
	for _, shards := range []int{1, 2, 4} {
		s := New(retention, shards)
		const total = 40
		for i := 0; i < total; i++ {
			s.Put(v(fmt.Sprintf("t%d", i)), "")
		}
		for i := 0; i < total; i++ {
			_, ok := s.Get(int64(i))
			if want := i >= total-retention; ok != want {
				t.Errorf("shards=%d: Get(%d) = %v, want %v", shards, i, ok, want)
			}
		}
		if s.Len() != retention {
			t.Errorf("shards=%d: Len = %d, want %d", shards, s.Len(), retention)
		}
	}
}

// TestContentRetention checks raw content rides along with the vector.
func TestContentRetention(t *testing.T) {
	s := New(2, 2)
	id, _ := s.Put(v("a"), "<html>a</html>")
	rec, ok := s.Get(id)
	if !ok || rec.Content != "<html>a</html>" {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	if _, ok := s.Get(-1); ok {
		t.Error("negative id resolved")
	}
	if _, ok := s.Get(99); ok {
		t.Error("unpublished id resolved")
	}
}

// TestConcurrentPutGet hammers the store from many goroutines (meaningful
// under -race): ids must stay unique and totally ordered, and the final
// window exact.
func TestConcurrentPutGet(t *testing.T) {
	const (
		writers = 8
		perG    = 100
		ret     = 64
	)
	s := New(ret, 8)
	ids := make([][]int64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id, _ := s.Put(v(fmt.Sprintf("g%d-%d", g, i)), "")
				ids[g] = append(ids[g], id)
				s.Get(id - 3)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[int64]bool, writers*perG)
	for g := range ids {
		last := int64(-1)
		for _, id := range ids[g] {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
			if id <= last {
				t.Fatalf("ids not monotonic within a publisher: %d after %d", id, last)
			}
			last = id
		}
	}
	if len(seen) != writers*perG {
		t.Fatalf("allocated %d ids, want %d", len(seen), writers*perG)
	}
	if s.Len() != ret {
		t.Errorf("Len = %d, want %d", s.Len(), ret)
	}
	count := 0
	s.Range(func(Record) { count++ })
	if count != ret {
		t.Errorf("Range visited %d records, want %d", count, ret)
	}
}
