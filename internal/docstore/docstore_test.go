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
	s := New(4)
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
		// The slots of ids not assigned yet hold nothing, or — from the
		// fifth document on — the document retention ids older.
		for next := id + 1; next <= id+4; next++ {
			if rec, ok := s.Get(next); ok {
				t.Fatalf("after doc %d, Get(%d) answers with doc %d", id, next, rec.ID)
			}
		}
	}
	// Retention 4: ids 2..5 retained, ids 0..1 evicted.
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
	// Internal shape: every filled slot is the one its record's id maps to.
	for k := range s.docs {
		if sl := &s.docs[k]; sl.filled && s.at(sl.rec.ID) != sl {
			t.Errorf("slot %d holds doc %d, whose slot is another", k, sl.rec.ID)
		}
	}
}

// TestExactFIFO checks the retention window is exact: after publishing k
// documents, exactly the last min(k, retention) are retrievable.
func TestExactFIFO(t *testing.T) {
	const retention, total = 12, 40
	s := New(retention)
	for i := 0; i < total; i++ {
		s.Put(v(fmt.Sprintf("t%d", i)), "")
	}
	for i := 0; i < total; i++ {
		_, ok := s.Get(int64(i))
		if want := i >= total-retention; ok != want {
			t.Errorf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
	if s.Len() != retention || s.Retention() != retention {
		t.Errorf("Len = %d, Retention = %d, want %d", s.Len(), s.Retention(), retention)
	}
}

// TestContentRetention checks raw content rides along with the vector.
func TestContentRetention(t *testing.T) {
	s := New(2)
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
	s := New(ret)
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
