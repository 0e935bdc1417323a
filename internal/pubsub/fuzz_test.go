package pubsub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/faultfs"
	"mmprofile/internal/store"
	"mmprofile/internal/vsm"
)

// hostileWeightProfile is a one-vector, one-term profile snapshot whose
// weight is the given float64 bits: what a wire import carries.
func hostileWeightProfile(t testing.TB, bits uint64) []byte {
	t.Helper()
	blob, err := trainedMM("hostileweight").MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(blob, []byte("hostileweight")) + len("hostileweight")
	binary.LittleEndian.PutUint64(blob[at:], bits)
	return blob
}

// FuzzImportSubscribe is the wire import op from the bytes on: whatever
// UnmarshalBinary accepts is subscribed under 65 names — one more than a
// posting block, so every term's list rebuilds into impact order at least
// once — and matched by a document sharing a term, all before a deadline.
// The first seed is the profile that used to hang the server: a weight of
// 6.8e38, finite as a float64 and +Inf as a posting weight.
func FuzzImportSubscribe(f *testing.F) {
	f.Add(hostileWeightProfile(f, 0x4800000000000000))
	f.Add(hostileWeightProfile(f, 0x47efffffe0000000)) // MaxFloat32: accepted
	f.Add(hostileWeightProfile(f, 0xbff0000000000000)) // −1
	trained, err := trainedMM("cat", "dog", "bird").MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trained)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := core.NewDefault()
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		done := make(chan error, 1)
		go func() {
			b := New(Options{Threshold: 0.1})
			for i := 0; i < 65; i++ {
				q := core.NewDefault()
				if err := q.UnmarshalBinary(data); err != nil {
					done <- fmt.Errorf("the bytes decoded once and then not: %w", err)
					return
				}
				if _, err := b.Subscribe(fmt.Sprintf("u%02d", i), q); err != nil {
					done <- err
					return
				}
			}
			for _, v := range p.ProfileVectors() {
				if v.Len() > 0 {
					b.PublishVector(vsm.Vector{Terms: v.Terms[:1], Weights: []float64{1}})
					break
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("a %d-byte profile, imported 65 times, holds the broker past the deadline", len(data))
		}
	})
}

// FuzzImportReplay: whatever bytes UnmarshalFrom accepts, imported into a
// broker journaled on a simulated disk, replay from the journal — in full
// (Store.RestoreAll) and for the one user (RestoreUser) — as the profile the
// import made. The journal holds the bytes themselves, and decoding is a
// function of them. Two seeds are encodings the decoder accepts and the
// encoder never writes: the flags byte with bit 3 set, and the vector count
// with a needless continuation byte.
func FuzzImportReplay(f *testing.F) {
	trained, err := trainedMM("cat", "dog", "bird").MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	const flagsAt = 1 + 5*8 // after the version byte and five float64 options
	flags := slices.Clone(trained)
	flags[flagsAt] |= 8
	at := flagsAt + 1
	for range 9 { // MaxTerms, MaxVectors, step, six operation counts
		_, k := binary.Uvarint(trained[at:])
		at += k
	}
	if trained[at] >= 0x80 {
		f.Fatalf("the seed wants a one-byte vector count, not %x", trained[at])
	}
	long := slices.Concat(trained[:at], []byte{trained[at] | 0x80, 0}, trained[at+1:])
	for _, seed := range [][]byte{trained, flags, long} {
		if err := core.NewDefault().UnmarshalBinary(seed); err != nil {
			f.Fatalf("the decoder refuses a seed: %v", err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := core.NewDefault().UnmarshalFrom(data, nil); err != nil {
			return
		}
		st, err := store.Open("/state", store.Options{FS: faultfs.NewSim()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		b := New(Options{Journal: st})
		if _, err := b.Import("u", "MM", data); err != nil {
			t.Fatalf("the bytes decoded once and then not: %v", err)
		}
		live, err := b.ExportProfile("u")
		if err != nil {
			t.Fatal(err)
		}
		restored, err := st.RestoreAll()
		if err != nil {
			t.Fatal(err)
		}
		one, ok, err := st.RestoreUser("u")
		if err != nil || !ok {
			t.Fatalf("RestoreUser: %v, found %v", err, ok)
		}
		for how, p := range map[string]*core.Profile{"RestoreAll": restored["u"], "RestoreUser": one} {
			got, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, live.Data) {
				t.Fatalf("%s replays a profile other than the import made", how)
			}
		}
	})
}
