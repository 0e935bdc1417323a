package vsm

import "testing"

func FuzzDecodeVector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(AppendVector(nil, vec("alpha", 1.0, "beta", 0.5)))
	f.Add([]byte{255, 255, 255, 255, 255})
	f.Add(append(AppendVector(nil, vec("a", 1.0)), 0xFF, 0x01))
	for _, b := range hugeHeaders() {
		f.Add(b)
	}
	for _, b := range hostileVectors() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeVector(data) // must not panic
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("rest grew")
		}
		// Anything successfully decoded must satisfy the Vector invariants
		// and re-encode to a decodable form.
		if !v.valid() && v.Len() > 0 {
			// valid() requires strictly positive weights; DecodeVector
			// allows zero/negative finite weights, so only check ordering.
			for i := 1; i < len(v.Terms); i++ {
				if v.Terms[i-1] >= v.Terms[i] {
					t.Fatalf("unsorted decode: %v", v.Terms)
				}
			}
		}
		enc := AppendVector(nil, v)
		if EncodedSize(v) != len(enc) {
			t.Fatalf("EncodedSize %d, AppendVector wrote %d bytes", EncodedSize(v), len(enc))
		}
		back, rest2, err := DecodeVector(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encode failed: %v", err)
		}
		if back.Len() != v.Len() {
			t.Fatalf("re-encode changed length: %d vs %d", back.Len(), v.Len())
		}
	})
}
