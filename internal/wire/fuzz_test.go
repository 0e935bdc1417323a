package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"mmprofile/internal/pubsub"
	"mmprofile/internal/trace"
)

// FuzzDispatch feeds arbitrary request JSON to the server's dispatcher: it
// must never panic, and every reply must be a well-formed Response with an
// error message whenever OK is false.
func FuzzDispatch(f *testing.F) {
	seeds := []string{
		`{"op":"subscribe","user":"a"}`,
		`{"op":"subscribe","user":"b","learner":"RI"}`,
		`{"op":"publish","content":"<html><body>cats</body></html>"}`,
		`{"op":"feedback","user":"a","doc":0,"relevant":true}`,
		`{"op":"poll","user":"a","max":-5}`,        // retired ops and fields:
		`{"op":"watch","user":"a","timeout_ms":1}`, // unknown op, never a block
		`{"op":"session","user":"a"}`,
		`{"op":"session","user":"a","batch":-3}`,
		`{"op":"profile","user":"nope"}`,
		`{"op":"stats"}`,
		`{"op":"unsubscribe","user":"zz"}`,
		`{"op":"???"}`,
		`{}`,
		`{"op":"subscribe","user":"","keywords":["x","y"]}`,
		`{"op":"import","user":"c","learner":"MM","state_len":3}`, // its state is not the line's
		`{"op":"export","user":"a"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	broker := pubsub.New(pubsub.Options{Threshold: 0.2, QueueSize: 4})
	srv := NewServer(broker, func(string, ...any) {})
	f.Fuzz(func(t *testing.T, raw string) {
		var req Request
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return // the JSON decoder rejects it before dispatch in real use
		}
		resp := srv.dispatch(req)
		if !resp.OK && resp.Error == "" {
			t.Fatalf("failed response without error: %+v (req %+v)", resp, req)
		}
	})
}

// FuzzTraceContext fuzzes the trace-context header codec that rides the
// Request.Trace field: arbitrary input must never panic, anything malformed
// or truncated must parse as the zero Remote ("no parent", never an error),
// and whatever parses as valid must survive a format/parse round trip.
func FuzzTraceContext(f *testing.F) {
	seeds := []string{
		"",
		"0123456789abcdef-fedcba9876543210", // well-formed
		"0123456789abcdef-fedcba987654321",  // one digit short
		"0123456789abcdef_fedcba9876543210", // wrong separator
		"0000000000000000-fedcba9876543210", // zero trace id
		"0123456789abcdef-0000000000000000", // zero span id
		"0123456789ABCDEF-FEDCBA9876543210", // uppercase rejected
		"0123456789abcdefgfedcba9876543210", // non-hex at the dash
		"-",
		"deadbeef",
		strings.Repeat("a", 33),
		strings.Repeat("a", 1000),
		"0123456789abcdef-fedcba9876543210extra",
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r := trace.ParseContext(s)
		if !r.OK() {
			// Malformed input must be indistinguishable from "no context".
			if r.Trace != 0 || r.Span != 0 {
				t.Fatalf("ParseContext(%q) = %+v, want zero Remote", s, r)
			}
			return
		}
		// Valid context must round-trip exactly and be canonical: the only
		// string that parses to this Remote is the formatted one.
		enc := trace.FormatContext(r.Trace, r.Span)
		if enc != s {
			t.Fatalf("round trip: ParseContext(%q) → %+v → FormatContext = %q", s, r, enc)
		}
		if r2 := trace.ParseContext(enc); r2 != r {
			t.Fatalf("re-parse: %+v != %+v", r2, r)
		}
	})
}
