package intern

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestInternRoundTrip(t *testing.T) {
	d := NewDict()
	id1 := d.Intern("cat")
	id2 := d.Intern("dog")
	if id1 == id2 {
		t.Fatalf("distinct terms got the same id %d", id1)
	}
	if got := d.Intern("cat"); got != id1 {
		t.Errorf("re-interning changed the id: %d != %d", got, id1)
	}
	if got := d.String(id1); got != "cat" {
		t.Errorf("String(%d) = %q, want cat", id1, got)
	}
	if got := d.String(id2); got != "dog" {
		t.Errorf("String(%d) = %q, want dog", id2, got)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("ghost"); ok {
		t.Error("Lookup found a term that was never interned")
	}
	if d.Len() != 0 {
		t.Errorf("Lookup grew the dictionary to %d entries", d.Len())
	}
	id := d.Intern("ghost")
	got, ok := d.Lookup("ghost")
	if !ok || got != id {
		t.Errorf("Lookup(ghost) = %d,%v; want %d,true", got, ok, id)
	}
}

func TestStringUnknownID(t *testing.T) {
	d := NewDict()
	if got := d.String(12345); got != "" {
		t.Errorf("String of unknown id = %q, want empty", got)
	}
}

// TestConcurrentIntern hammers the dictionary from many goroutines over a
// shared vocabulary and checks that every term ends up with exactly one id.
// Meaningful under -race.
func TestConcurrentIntern(t *testing.T) {
	d := NewDict()
	const goroutines = 8
	const vocab = 500
	ids := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, vocab)
			for i := 0; i < vocab; i++ {
				// Interleave interning with read-side traffic.
				ids[g][i] = d.Intern(fmt.Sprintf("term%03d", i))
				d.Lookup(fmt.Sprintf("term%03d", (i+7)%vocab))
				d.String(ids[g][i])
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != vocab {
		t.Fatalf("Len = %d, want %d", d.Len(), vocab)
	}
	for i := 0; i < vocab; i++ {
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("term%03d interned to both %d and %d", i, ids[0][i], ids[g][i])
			}
		}
	}
	for i := 0; i < vocab; i++ {
		want := fmt.Sprintf("term%03d", i)
		if got := d.String(ids[0][i]); got != want {
			t.Errorf("String(%d) = %q, want %q", ids[0][i], got, want)
		}
	}
}

// TestCanonSharesOneString pins the table's purpose: however a term
// arrives — decoded bytes, an interned string — every holder gets the same
// backing array, and looking a term up never adds it.
func TestCanonSharesOneString(t *testing.T) {
	d := NewDict()
	if _, ok := d.LookupBytes([]byte("cat")); ok || d.Len() != 0 {
		t.Fatalf("LookupBytes on an empty dictionary: ok=%v Len=%d", ok, d.Len())
	}
	a := d.Canon([]byte("cat"))
	b := d.Canon([]byte("cat"))
	if a != "cat" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Errorf("two Canons of one term are not one string: %q %p %p", a, unsafe.StringData(a), unsafe.StringData(b))
	}
	if s, ok := d.LookupBytes([]byte("cat")); !ok || unsafe.StringData(s) != unsafe.StringData(a) {
		t.Errorf("LookupBytes = %q,%v, not the canonical string", s, ok)
	}
	if got := d.String(d.Intern("cat")); unsafe.StringData(got) != unsafe.StringData(a) {
		t.Error("Intern after Canon made a second copy")
	}
	dog := "dog"
	id := d.Intern(dog)
	if got := d.Canon([]byte("dog")); unsafe.StringData(got) != unsafe.StringData(dog) {
		t.Error("Canon after Intern made a second copy")
	}
	if got, ok := d.Lookup("dog"); !ok || got != id {
		t.Errorf("Lookup(dog) = %d,%v; want %d,true", got, ok, id)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

// TestInternBytesIsIntern: the two spellings of a term get one id, whichever
// arrives first, and String gives it back.
func TestInternBytesIsIntern(t *testing.T) {
	d := NewDict()
	for i, term := range []string{"", "a", "stem", "eightlen", "internationalis"} {
		var byBytes, byString uint32
		if i%2 == 0 {
			byBytes = d.InternBytes([]byte(term))
			byString = d.Intern(term)
		} else {
			byString = d.Intern(term)
			byBytes = d.InternBytes([]byte(term))
		}
		if byBytes != byString || d.String(byBytes) != term {
			t.Errorf("%q: InternBytes %d, Intern %d, String %q", term, byBytes, byString, d.String(byBytes))
		}
	}
	if d.Len() != 5 {
		t.Errorf("Len = %d after five terms", d.Len())
	}
}

// TestTermsThatOnlyLengthOrTailTellApart covers what a slot decides without
// reading the term (length and first eight bytes) and what it cannot.
func TestTermsThatOnlyLengthOrTailTellApart(t *testing.T) {
	d := NewDict()
	terms := []string{
		"", "a", "ab", "ab\x00", "ab\x00\x00", "abcdefgh", "abcdefgh\x00",
		"abcdefghi", "abcdefghj", "abcdefghij", "internationalise", "internationalism",
	}
	ids := map[uint32]string{}
	for _, s := range terms {
		id := d.Intern(s)
		if prev, dup := ids[id]; dup {
			t.Fatalf("%q and %q share id %d", prev, s, id)
		}
		ids[id] = s
	}
	for id, s := range ids {
		if got := d.String(id); got != s {
			t.Errorf("String(%d) = %q, want %q", id, got, s)
		}
		if got := d.Canon([]byte(s)); got != s {
			t.Errorf("Canon(%q) = %q", s, got)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

// TestSlotIsHalfACacheLine pins the layout find's one-line lookup rests on.
func TestSlotIsHalfACacheLine(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Errorf("slot is %d bytes, want 32", got)
	}
}

// TestLookupsDoNotAllocate: a profile decode makes one Canon per (vector,
// term) pair and a publish one Lookup per document term; neither may cost a
// malloc once the term is known.
func TestLookupsDoNotAllocate(t *testing.T) {
	d := NewDict()
	short, long := []byte("stem"), []byte("internationalis")
	d.Canon(short)
	d.Canon(long)
	for name, fn := range map[string]func(){
		"Canon":       func() { d.Canon(short); d.Canon(long) },
		"LookupBytes": func() { d.LookupBytes(short); d.LookupBytes(long); d.LookupBytes([]byte("absent")) },
		"Lookup":      func() { d.Lookup("stem"); d.Lookup("absent") },
		"Intern":      func() { d.Intern("internationalis") },
		"InternBytes": func() { d.InternBytes(short); d.InternBytes(long) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// TestConcurrentCanonWhileGrowing has writers push the table through
// several generations while readers look up, by every spelling, terms
// they know are in. Meaningful under -race.
func TestConcurrentCanonWhileGrowing(t *testing.T) {
	d := NewDict()
	const goroutines = 8
	const vocab = 20000
	term := func(i int) string { return fmt.Sprintf("t%dx%d", i, i*i) } // lengths 4..15
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g % 2; i < vocab; i++ {
				s := d.Canon([]byte(term(i)))
				if s != term(i) {
					t.Errorf("Canon(%q) = %q", term(i), s)
					return
				}
				id, ok := d.Lookup(s)
				if !ok || d.String(id) != s {
					t.Errorf("Lookup/String lost %q (id %d, ok %v)", s, id, ok)
					return
				}
				if got, ok := d.LookupBytes([]byte(s)); !ok || unsafe.StringData(got) != unsafe.StringData(s) {
					t.Errorf("LookupBytes(%q) is not the canonical string", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != vocab {
		t.Fatalf("Len = %d, want %d", d.Len(), vocab)
	}
}

// TestIDsAreDense: ids are 0..Len()-1 in order of first sight, across every
// growth of the table, so an array indexed by id has no holes.
func TestIDsAreDense(t *testing.T) {
	d := NewDict()
	for i := 0; i < 5000; i++ {
		term := fmt.Sprintf("w%d", i)
		if id := d.Intern(term); id != uint32(i) {
			t.Fatalf("%s got id %d, want %d", term, id, i)
		}
	}
	if d.Len() != 5000 || d.String(4999) != "w4999" || d.String(5000) != "" {
		t.Errorf("Len %d, String(4999) %q, String(5000) %q", d.Len(), d.String(4999), d.String(5000))
	}
}
