package pubsub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"mmprofile/internal/core"
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
