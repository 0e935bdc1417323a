package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mmprofile/internal/filter"
)

// sampleWAL builds a real three-event log and returns its raw bytes.
func sampleWAL(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s.AppendSubscribe("alice", "MM", nil)
	s.AppendFeedback("alice", vec("cat", 1.0), filter.Relevant)
	s.AppendUnsubscribe("alice")
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal-000-00000000.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzLoadWAL feeds arbitrary bytes to the log reader: Open and Load must
// never panic. Open may refuse mid-log corruption; whatever a successful
// Load accepts must be structurally sound events.
func FuzzLoadWAL(f *testing.F) {
	real := sampleWAL(f)
	f.Add(real)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(real[:len(real)-3])
	mutated := append([]byte(nil), real...)
	mutated[10] ^= 0xFF
	f.Add(mutated)
	// A header claiming an implausibly large record (32-bit int overflow
	// bait for the length conversion).
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge, 0xF0000000)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, "wal-000-00000000.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(fdir, Options{})
		if err != nil {
			// Mid-log corruption refused at open; the read-only path must
			// still be able to inspect it without panicking.
			ro, rerr := Open(fdir, Options{ReadOnly: true})
			if rerr != nil {
				t.Fatalf("read-only open failed: %v", rerr)
			}
			defer ro.Close()
			ro.WALInfo()
			ro.Load()
			return
		}
		defer st.Close()
		_, events, err := st.Load() // must not panic
		if err != nil {
			return
		}
		for _, ev := range events {
			switch ev.Type {
			case EventFeedback, EventSubscribe, EventUnsubscribe:
			default:
				t.Fatalf("accepted unknown event type %d", ev.Type)
			}
		}
	})
}

// FuzzDecodeEvent hits the event decoder with raw payloads (no framing):
// it must error or decode, never panic or read out of bounds.
func FuzzDecodeEvent(f *testing.F) {
	real := sampleWAL(f)
	payloads, _, err := scanRecords(real)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // huge varint length
	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := decodeEvent(payload)
		if err != nil {
			return
		}
		switch ev.Type {
		case EventFeedback, EventSubscribe, EventUnsubscribe:
		default:
			t.Fatalf("accepted unknown event type %d", ev.Type)
		}
	})
}

// FuzzSegmentIndex hits the index-frame decoder with arbitrary payloads
// and offsets: it must error, or return entries that tile [0, end) — each
// within maxRecordLen — and it must never panic or allocate more than the
// payload's length can justify (a claimed count is bounded before the map
// is sized for it).
func FuzzSegmentIndex(f *testing.F) {
	// A real index: the frame a checkpoint of three users ends its segment
	// with.
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		s.AppendSubscribe(u, "MM", nil)
		s.AppendFeedback(u, vec("cat", 1.0, u, 0.5), filter.Relevant)
	}
	if _, err := s.Checkpoint(1); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000-00000001.db"))
	if err != nil {
		f.Fatal(err)
	}
	end := s.idxOff
	real := seg[end+8:]
	if _, err := decodeSegIndex(real, end); err != nil {
		f.Fatalf("the checkpoint's own index: %v", err)
	}
	f.Add(real, end)
	f.Add(real[:len(real)-2], end)
	f.Add(real, end+8) // a record short of the offset
	dup := appendSegIndex(nil, 2, appendSegIndexEntry(appendSegIndexEntry(nil, "alice", 7), "alice", 9))
	f.Add(dup, int64(8+7+8+9))
	f.Add([]byte{0}, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0}, int64(16)) // huge varint count
	f.Add(binary.AppendUvarint(nil, 1<<20), int64(0))                                          // a million entries in three bytes
	f.Fuzz(func(t *testing.T, payload []byte, end int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx, err := decodeSegIndex(payload, end)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(payload))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		refs := make([]segRef, 0, len(idx))
		for _, ref := range idx {
			refs = append(refs, ref)
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].off < refs[j].off })
		off := int64(0)
		for _, ref := range refs {
			if ref.off != off || ref.n > maxRecordLen {
				t.Fatalf("entries %v do not tile [0, %d)", refs, end)
			}
			off += 8 + int64(ref.n)
		}
		if off != end {
			t.Fatalf("entries cover [0, %d), the index starts at %d", off, end)
		}
	})
}

// FuzzManifest hits the manifest decoder, the first reader of a state
// directory's bytes: any payload either decodes to a manifest that
// appendManifest writes back byte for byte — one lane, generation 0
// exactly when there is no index — or is refused. The seeds are today's
// encoding and the three layouts of older releases it refuses.
func FuzzManifest(f *testing.F) {
	f.Add(appendManifest(nil, 1, 0, noIndex))
	f.Add(appendManifest(nil, 9, 4, 4321))
	f.Add(olderManifest(2, []uint64{3, 1, 0, 2}, []uint64{40, 40, 0, 40}))
	f.Add(olderManifest(1, []uint64{1, 1}, nil))
	f.Add(olderManifest(2, []uint64{3}, []uint64{0}))
	f.Add([]byte{'M', 'M', 'L', 'N', 2, 0x81, 0, 1, 0, 0}) // an epoch of 1 in two bytes
	f.Fuzz(func(t *testing.T, payload []byte) {
		mf, err := decodeManifest(payload)
		if err != nil {
			return
		}
		if (mf.gen == 0) != (mf.idx == noIndex) || mf.idx < noIndex {
			t.Fatalf("decoded generation %d with index offset %d", mf.gen, mf.idx)
		}
		if again := appendManifest(nil, mf.epoch, mf.gen, mf.idx); !bytes.Equal(again, payload) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", payload, mf, again)
		}
	})
}

// TestBitFlipEveryOffset is the exhaustive corruption sweep: flipping any
// single bit anywhere in a valid log must leave the scanner with exactly
// three outcomes — an explicit error, the full record list (flip in torn-
// away slack can't happen here), or a clean prefix with the damaged
// record dropped only at the tail. Never a panic, never a mis-decoded
// record (CRC32 catches all single-bit errors).
func TestBitFlipEveryOffset(t *testing.T) {
	data := sampleWAL(t)
	want, committed, err := scanRecords(data)
	if err != nil || committed != len(data) {
		t.Fatalf("sample log unclean: %d/%d, %v", committed, len(data), err)
	}
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			payloads, _, err := scanRecords(mut)
			if err != nil {
				continue // detected and reported: fine
			}
			if len(payloads) > len(want) {
				t.Fatalf("offset %d bit %d: gained records (%d > %d)", off, bit, len(payloads), len(want))
			}
			for i, p := range payloads {
				if !bytes.Equal(p, want[i]) {
					t.Fatalf("offset %d bit %d: record %d mis-decoded", off, bit, i)
				}
			}
			// Whatever survived must still decode without panicking.
			for _, p := range payloads {
				decodeEvent(p)
			}
		}
	}
}

// TestImplausibleLengthIs32BitSafe pins the bounds check on the framing
// length: a header claiming 0xF0000000 bytes would turn negative in a
// naive int() conversion on 32-bit platforms and panic the slice; it must
// be reported as corruption instead.
func TestImplausibleLengthIs32BitSafe(t *testing.T) {
	data := make([]byte, 64)
	binary.LittleEndian.PutUint32(data[0:4], 0xF0000000)
	if _, _, err := scanRecords(data); err == nil {
		t.Fatal("implausible length accepted")
	}
	// Same for the varint field lengths inside a payload.
	payload := []byte{byte(EventSubscribe), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, err := decodeEvent(payload); err == nil {
		t.Fatal("huge varint field accepted")
	}
}
