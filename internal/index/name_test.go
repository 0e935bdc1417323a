package index

import (
	"fmt"
	"testing"
	"unsafe"

	"mmprofile/internal/vsm"
)

// digestOf is the name a decoder gives p's canonical encoding.
func digestOf(p vsm.Packed) vsm.Digest { return vsm.DigestOf(vsm.AppendPacked(nil, p)) }

// namedEntries returns how many live entries have a name, and checks that
// the name table holds exactly those: each found under its own digest, no
// dead entry named, and the table's count the same.
func namedEntries(t *testing.T, ix *Index) int {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	named := 0
	for slot, d := range ix.names {
		if d == (vsm.Digest{}) {
			continue
		}
		named++
		if !ix.entries[slot].alive() {
			t.Errorf("dead entry %d keeps its name", slot)
		}
		if s, ok := ix.byName.find(&d, ix.names); !ok || s != uint32(slot) {
			t.Errorf("entry %d's name finds %d, %v", slot, s, ok)
		}
	}
	if ix.byName.n != named {
		t.Errorf("the name table holds %d names; %d live entries are named", ix.byName.n, named)
	}
	return named
}

// TestNamesDieWithTheirEntries: a digest handed to SetPacked names the
// entry its vector lands in, joined or new, unless the entry has a name;
// Named then gives that entry's vector. The table never outlives its
// entries: as holders leave — unsubscribed (RemoveUser), or with a new
// vector in the named one's place, as feedback replaces it — every entry
// whose last holder went loses its name, and with every user gone the
// table is empty and back to its smallest.
func TestNamesDieWithTheirEntries(t *testing.T) {
	const users, shared = 300, 100
	base := make([]vsm.Packed, shared)
	for k := range base {
		base[k] = paperVector(fmt.Sprintf("n%d", k), 20, 1)
	}
	ix := New()
	for u := 0; u < users; u++ {
		x, y := base[u%shared], base[(u+1)%shared]
		ix.SetPacked(fmt.Sprintf("u%03d", u), []vsm.Packed{clonePacked(x), clonePacked(y)}, digestOf(x), digestOf(y))
	}
	if got := namedEntries(t, ix); got != shared {
		t.Fatalf("%d named entries, want %d", got, shared)
	}
	for k, x := range base {
		if p, ok := ix.Named(digestOf(x)); !ok || !p.Equal(x) {
			t.Fatalf("Named(digest of vector %d) = %v, %v", k, p, ok)
		}
	}
	// An equal vector under another name joins the entry and leaves its
	// name; a zero digest names nothing.
	other := vsm.DigestOf([]byte("another encoding"))
	ix.SetPacked("late", []vsm.Packed{clonePacked(base[0]), paperVector("late", 20, 1)}, other, vsm.Digest{})
	if _, ok := ix.Named(other); ok || namedEntries(t, ix) != shared {
		t.Errorf("a second name for a named entry, or a zero one, was taken")
	}
	ix.RemoveUser("late")

	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%03d", u)
		if u%2 == 0 {
			ix.RemoveUser(user)
		} else {
			y := base[(u+1)%shared]
			ix.SetPacked(user, []vsm.Packed{paperVector(user, 20, 1), clonePacked(y)})
		}
		namedEntries(t, ix)
	}
	for k, x := range base {
		// Only odd users remain, each holding base[(u+1)%shared]: the even k.
		if _, ok := ix.Named(digestOf(x)); ok != (k%2 == 0) {
			t.Errorf("vector %d: Named says %v with %s holder left", k, ok, map[bool]string{true: "a", false: "no"}[k%2 == 0])
		}
	}
	for u := 0; u < users; u++ {
		ix.RemoveUser(fmt.Sprintf("u%03d", u))
	}
	if got := namedEntries(t, ix); got != 0 || len(ix.byName.cells) > 16 {
		t.Errorf("with every user gone: %d named entries, %d cells", got, len(ix.byName.cells))
	}
}

// TestNameBytesPerEntry: the digest and the table cell a named entry costs,
// with the slack the arrays hold, stay within 48 bytes at every size up to
// 20 000 named entries — the match workload's population names some 7 000.
func TestNameBytesPerEntry(t *testing.T) {
	ix := New()
	worst := 0.0
	for i := 0; i < 20000; i++ {
		p := vsm.Pack(vec(fmt.Sprintf("namebytes%d", i), 1.0))
		ix.SetPacked(fmt.Sprintf("u%05d", i), []vsm.Packed{p}, digestOf(p))
		if i >= 256 {
			perEntry := float64(cap(ix.names)*int(unsafe.Sizeof(vsm.Digest{}))+cap(ix.byName.cells)*8) / float64(i+1)
			worst = max(worst, perEntry)
		}
	}
	t.Logf("at most %.1f bytes per named entry", worst)
	if worst > 48 {
		t.Errorf("a named entry costs up to %.1f bytes, budget 48", worst)
	}
}
