package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// chunkReader returns its bytes in reads whose sizes cycle through the
// nibbles of cuts (each plus one, and 0xF for all the room the reader
// gives): the stream split at fuzzed points.
type chunkReader struct {
	b    []byte
	cuts uint64
	k    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := int(r.cuts>>(4*(r.k%16))&0xF) + 1
	if n == 16 {
		n = len(p)
	}
	r.k++
	n = copy(p[:min(n, len(p))], r.b)
	r.b = r.b[n:]
	return n, nil
}

// checkReadRequest reads stream, split by cuts, with the request reader and
// fails unless it yields json.Unmarshal of each non-blank line, with the
// state_len bytes after the line as its state, in order, up to the first
// line the connection ends on, where the reader must end it too: one json
// refuses, one whose state_len is negative or takes the request past
// maxRequestBytes, or one whose state the stream cuts short. A line with a
// member json matches to "state", or a state_len on an op other than
// import, must be a refusal, with its state read past. A line the one-pass
// decoder takes must decode there as json decodes it.
func checkReadRequest(t *testing.T, stream []byte, cuts uint64) {
	t.Helper()
	rd := newRequestReader(&chunkReader{b: stream, cuts: cuts})
	for i, rest := 0, stream; len(rest) > 0; i++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(bytes.TrimLeft(line, " \t\r")) == 0 {
			continue
		}
		var want, fast, got Request
		werr := json.Unmarshal(line, &want)
		if decodeLine(line, &fast) && (werr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("line %d %q:\none pass       %#v\njson.Unmarshal %#v, %v", i, line, fast, want, werr)
		}
		gerr := rd.next(&got)
		var refused refusal
		n := want.StateLen
		if werr != nil || n < 0 || len(line)+1+n > maxRequestBytes || n > len(rest) {
			if gerr == nil || errors.Is(gerr, io.EOF) || errors.As(gerr, &refused) {
				t.Fatalf("line %d %q: json.Unmarshal: %v, state_len %d of %d bytes left; reader: %+v, %v",
					i, line, werr, n, len(rest), got, gerr)
			}
			return
		}
		if n > 0 {
			want.State = rest[:n]
		}
		rest = rest[n:]
		var members map[string]json.RawMessage
		_ = json.Unmarshal(line, &members)
		stateMember := false
		for k := range members {
			stateMember = stateMember || strings.EqualFold(k, "state")
		}
		if stateMember || n > 0 && want.Op != OpImport {
			if !errors.As(gerr, &refused) || !strings.Contains(gerr.Error(), "state_len") {
				t.Fatalf("line %d %q: reader: %+v, %v; want a refusal naming state_len", i, line, got, gerr)
			}
			continue
		}
		if gerr != nil {
			t.Fatalf("line %d %q: json.Unmarshal: %+v; reader: %v", i, line, want, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d %q:\nreader         %#v\njson.Unmarshal %#v", i, line, got, want)
		}
	}
	if err := rd.next(&Request{}); err != io.EOF {
		t.Fatalf("after the last line of %q: %v, want EOF", stream, err)
	}
}

// encodeRequest is req as wire.Client sends it: its line, then its state.
func encodeRequest(req Request) []byte {
	req.StateLen = len(req.State)
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return append(append(b, '\n'), req.State...)
}

// readRequestSeeds are every op wire.Client sends, as it sends them, and
// the corners of the grammar where the one-pass decoder must step aside,
// where a state must be refused and read past, and where the connection
// must end.
func readRequestSeeds() []string {
	var seeds []string
	for _, req := range []Request{
		{Op: OpSubscribe, User: "alice", Learner: "MM", Keywords: []string{"cats", "dogs"}},
		{Op: OpUnsubscribe, User: "alice"},
		{Op: OpPublish, Content: "<html><body>\n<p>cats & dogs</p>\t\u2028</body></html>", Trace: "0123456789abcdef-fedcba9876543210"},
		{Op: OpFeedback, User: "alice", Doc: 9223372036854775807, Relevant: true},
		{Op: OpFetch, Doc: -3},
		{Op: OpExport, User: "alice"},
		{Op: OpImport, User: "alice", Learner: "MM", State: []byte("\x01\x00\xff profile\nbytes \xfe")},
		{Op: OpImport, User: "bob", Learner: "MM", State: []byte{}},
		{Op: OpStats},
		{Op: OpSession, User: "alice", Batch: 16},
		{Op: OpProfile, User: "alice"},
	} {
		seeds = append(seeds, string(encodeRequest(req)))
	}
	imp := string(encodeRequest(Request{Op: OpImport, User: "u", Learner: "MM", State: []byte("{\"op\":\"stats\"}\n")}))
	stats := `{"op":"stats"}` + "\n"
	return append(seeds,
		// Attachments: one holding a line, one the next line follows at once.
		imp+imp+stats, `{"op":"import","state_len":3}`+"\nabc"+stats+`{"op":"import","state_len":1}`+"\n\n",
		`{"state_len":0}`+"\n"+stats, `{"op":"import","state_len":null}`+"\n"+stats,
		// Refused, read past: a state member, in any case, and a state on an op that takes none.
		`{"op":"import","user":"u","learner":"MM","state":"QUJD"}`+"\n"+stats,
		`{"op":"stats","state_len":2}`+"\nxy"+stats, `{"op":"session","user":"a","state_len":1}`+"\n\n"+stats,
		`{"STATE":null,"op":"stats"}`+"\n"+stats, "{\"\u017ftate\":1}\n"+stats,
		`{"state":"QQ==","op":"import","state_len":1}`+"\nz"+stats,
		// The connection ends.
		`{"op":"import","state_len":-1}`+"\n"+stats, `{"op":"import","state_len":1.5}`+"\n.", `{"op":"import","state_len":"5"}`,
		`{"op":"import","state_len":1e3}`, `{"op":"import","state_len":4194304}`+"\n"+stats,
		`{"op":"import","state_len":4194269}`+"\n"+stats, `{"op":"import","state_len":9223372036854775808}`,
		`{"op":"import","state_len":10}`+"\nshort", `{"op":"import","state_len":1}`,
		`{"op":"stats"}{"op":"profile","user":"a"}`+"\n"+`{"op":"stats"}`,
		`{"user":"\ud83d\ude00 \ud800 \udc00\ud800 \ud800\u0041 \ud83d\ud83d\ude00","content":"\u003c\/p\u003e\n\"\\\b\f\r\t"}`,
		"{\"user\":\"\xff\xfe a\xc3 \xed\xa0\x80 \xef\xbf\xbd\",\"op\":\"stats\"}",
		"{\"\u212aeywords\":[\"k\"],\"\u017ftate_len\":2,\"OP\":\"import\",\"uSeR\":\"u\",\"\\u0064oc\":5}\nab",
		`{"user":"a","user":"b","keywords":["x","y"],"keywords":["z"],"keywords":[null,null,"w"],"state_len":2,"state_len":null}`,
		`{"keywords":["x"],"keywords":[],"doc":1,"doc":null,"relevant":true,"relevant":null,"op":null}`,
		`null`, `null{"op":"stats"}`, ` {} `, `nul`, `[]`, `"op"`, `5`, `true`,
		`{"x":{"y":[1,-2.5e+3,{"z":null}],"w":"\u00e9"},"op":"stats","v":[[],{}],"t":true,"f":false}`,
		`{"doc":1e2}`, `{"doc":1.0}`, `{"doc":9223372036854775808}`, `{"doc":-9223372036854775808}`,
		`{"doc":-0}`, `{"doc":01}`, `{"doc":-}`, `{"doc":"5"}`, `{"batch":1.5e300}`, `{"x":1.}`, `{"x":1e}`,
		`{"state":"QUJD\nRA=="}`, `{"state":"QUJDRA\u003d\u003d"}`, `{"state":"\u00ff"}`,
		"{\"user\":\"a\x01\"}", `{"user":"\x"}`, `{"user":"\u12G4"}`, `{"op":"stats",}`, `{,}`, `{"op" "stats"}`,
		`{"keywords":["a",]}`, `{"keywords":[1]}`, `{"keywords":"a"}`, `{"relevant":"true"}`, `{"op":["stats"]}`,
		`{"x":[`+strings.Repeat("[", 10000)+strings.Repeat("]", 10000)+`]}`,
		`{"x":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`,"op":"stats"}`,
		"\r\n\t {\"op\":\"stats\"}\r\n\t ",
		"{\"op\":\"stats\"}\n\n \r\n{\"op\":\"profile\",\"user\":\"a\"}",
		`{"op":"stats"}`+"\n"+`{"op":"st`, `{"op":"stats"} `, `{"keywords":["a","b"]`,
		`{"relevant":false,"batch":-0,"keywords":[],"state_len":-0}`,
	)
}

// TestClientTrafficTakesOnePass: every op wire.Client sends, with what a
// benchmark sends in it — corpus pages as content, a trained profile's
// Export as state, keyword lists, trace context — is decoded in one pass,
// never by json.Unmarshal, and as json.Unmarshal decodes it; an import's
// state follows its line as it stands, and an export's reply hands the
// client the state that follows the reply's line.
func TestClientTrafficTakesOnePass(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 1
	pages := corpus.Generate(cfg).Pages
	pipe, stats := text.NewPipeline(), vsm.NewStats()
	terms := make([][]string, len(pages))
	for i, p := range pages {
		terms[i] = pipe.Terms(p.HTML)
		stats.Add(terms[i])
	}
	profile := core.NewDefault()
	for _, ts := range terms {
		profile.Observe(vsm.DocumentVector(ts, vsm.Bel{Stats: stats}), filter.Relevant)
	}
	state, err := profile.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// The other end of the client's connection answers each line with
	// whether the one-pass decoder took it as json.Unmarshal takes it, and
	// an export with state.
	local, remote := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer remote.Close()
		r, enc := bufio.NewReader(remote), json.NewEncoder(remote)
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return
			}
			line = line[:len(line)-1]
			var fast, want Request
			resp := Response{OK: true, Stats: &StatsMsg{}, Profile: &ProfileMsg{}}
			if !decodeLine(line, &fast) {
				resp = errResponse("fell back to json.Unmarshal: %.200q", line)
			} else if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(fast, want) {
				resp = errResponse("one pass %.200q, json.Unmarshal %.200q, %v", fmt.Sprint(fast), fmt.Sprint(want), err)
			}
			got := make([]byte, want.StateLen)
			if _, err := io.ReadFull(r, got); err != nil {
				return
			}
			switch {
			case want.Op == OpImport && !bytes.Equal(got, state):
				resp = errResponse("import carried %d bytes, not the %d of the state", len(got), len(state))
			case want.Op == OpExport:
				resp.StateLen = len(state)
			}
			if enc.Encode(resp) != nil {
				return
			}
			if resp.StateLen == 0 {
				continue
			}
			if _, err := remote.Write(state); err != nil {
				return
			}
		}
	}()
	c := NewClient(local)
	const ctx = "0123456789abcdef-fedcba9876543210"
	var errs []error
	for _, p := range pages {
		_, _, _, err := c.PublishTrace(p.HTML, ctx)
		errs = append(errs, err)
	}
	_, ferr := c.FeedbackTrace("alice", 1<<40, true, ctx)
	_, serr := c.Stats()
	_, perr := c.Profile("alice")
	_, xerr := c.Fetch(123)
	_, exported, eerr := c.Export("alice")
	if !bytes.Equal(exported, state) {
		t.Errorf("export gave %d bytes, not the %d the server sent", len(exported), len(state))
	}
	errs = append(errs,
		c.Subscribe("alice", "", []string{"cats", "jazz", "naïve", "<b>&"}),
		c.Subscribe("bob", "MMND", nil),
		c.Import("carol", "MM", state),
		c.Feedback("alice", 0, false),
		ferr, serr, perr, xerr, eerr,
		c.Unsubscribe("alice"),
	)
	_, err = c.Session("alice", 16) // last: the connection is the session's now
	for _, err := range append(errs, err) {
		if err != nil {
			t.Error(err)
		}
	}
	t.Logf("%d requests, a %d B import among them", len(errs)+1, len(state))
	c.Close()
	<-done
}

// FuzzReadRequest: for any byte stream, split at any points, the request
// reader yields json.Unmarshal of each non-blank line, and errors where it
// errors.
func FuzzReadRequest(f *testing.F) {
	for _, s := range readRequestSeeds() {
		f.Add([]byte(s), uint64(0))
		f.Add([]byte(s), uint64(0x0123456789abcdef))
		f.Add([]byte(s), ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, stream []byte, cuts uint64) {
		if len(stream) >= maxRequestBytes {
			return // a line this long is refused
		}
		checkReadRequest(t, stream, cuts)
	})
}

// TestRequestTooLongCloses: a request that never ends is refused once it
// reaches maxRequestBytes — the connection closes and the server logs
// "wire: decode" — and its buffer never grows much past the limit, however
// much the client goes on sending. A line whose state_len is negative, not
// an integer, or one byte more than the limit leaves its line is refused
// the same way, before any of its state is read; one that fills the limit
// exactly is read and answered.
func TestRequestTooLongCloses(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory counts as heap")
	}
	var mu sync.Mutex
	var logged []string
	srv := NewServer(pubsub.New(pubsub.Options{Threshold: 0.2}), func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	defer srv.Close()
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	base := live()
	local, remote := net.Pipe()
	defer local.Close()
	srv.ServeConn(remote)
	local.SetDeadline(time.Now().Add(20 * time.Second))

	chunk := bytes.Repeat([]byte("A"), 4096)
	sent, peak := 0, uint64(0)
	_, err := local.Write([]byte(`{"op":"publish","content":"`))
	for err == nil && sent < 2*maxRequestBytes {
		var n int
		n, err = local.Write(chunk)
		sent += n
		if sent%(maxRequestBytes/8) == 0 {
			if h := live(); h > base {
				peak = max(peak, h-base)
			}
		}
	}
	if err == nil {
		t.Fatalf("the server took %d bytes of one request without closing the connection", sent)
	}
	if sent > maxRequestBytes {
		t.Errorf("the server read %d bytes of one request, limit %d", sent, maxRequestBytes)
	}
	t.Logf("read %d bytes, live heap grew at most %d B", sent, peak)
	// The last doubling holds the old buffer and the new: 1.5 times the limit.
	if limit := maxRequestBytes * 7 / 4; peak > uint64(limit) {
		t.Errorf("live heap grew %d B while reading one request, want at most %d", peak, limit)
	}
	settled(t, srv, anyGoroutines)

	edge := func(over int) string {
		line := `{"op":"import","user":"u","learner":"MM","state_len":0000000}`
		return fmt.Sprintf(`{"op":"import","user":"u","learner":"MM","state_len":%d}`, maxRequestBytes-len(line)-1+over)
	}
	bad := []string{
		`{"op":"import","user":"u","learner":"MM","state_len":-1}`,
		`{"op":"import","user":"u","learner":"MM","state_len":1.5}`,
		`{"op":"import","user":"u","learner":"MM","state_len":"5"}`,
		`{"op":"import","user":"u","learner":"MM","state_len":1e3}`,
		edge(1),
	}
	for _, line := range bad {
		local, remote := net.Pipe()
		srv.ServeConn(remote)
		local.SetDeadline(time.Now().Add(10 * time.Second))
		go local.Write([]byte(line + "\n" + strings.Repeat("A", 4096)))
		if n, err := local.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Errorf("%s: read %d bytes, %v; want the connection closed", line, n, err)
		}
		local.Close()
	}
	conn := pipeConn(t, srv)
	r := bufio.NewReader(conn)
	for _, req := range []string{edge(0) + "\n" + strings.Repeat("\x00", maxRequestBytes-len(edge(0))-1), `{"op":"stats"}` + "\n"} {
		go conn.Write([]byte(req))
		if line, err := r.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte(`{"ok":`)) {
			t.Fatalf("request of %d bytes: reply %q, %v", len(req), line, err)
		}
	}
	conn.Close()
	settled(t, srv, anyGoroutines)
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1+len(bad) || !strings.Contains(logged[0], "wire: decode") || !strings.Contains(logged[0], "longer than") {
		t.Fatalf("logged %q, want a wire: decode line naming the limit, then one for each bad state_len", logged)
	}
	for i, l := range logged[1:] {
		if !strings.Contains(l, "wire: decode") || !strings.Contains(l, "state_len") {
			t.Errorf("%s: logged %q, want a wire: decode line naming state_len", bad[i], l)
		}
	}
}

// TestIdleRequestConnBytes: a request connection waiting for its next
// request holds no more heap than one did with a json.Decoder, which read
// 4.5–5.0 KB here — connection, pipe and handler included — even after a
// run of imports that grew its read buffer.
func TestIdleRequestConnBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory counts as heap")
	}
	const n, imports, budget = 2000, 3, 4.5 * 1024
	b := pubsub.New(pubsub.Options{Threshold: 0.2})
	srv := NewServer(b, func(string, ...any) {})
	defer srv.Close()
	state := exportState(t, b)
	live := func() uint64 {
		var m runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heap0 := live()
	conns := make([]net.Conn, n)
	r := bufio.NewReader(nil)
	for i := range conns {
		local, remote := net.Pipe()
		defer local.Close()
		srv.ServeConn(remote)
		req := []byte(`{"op":"stats"}` + "\n")
		for k := 0; k < imports; k++ {
			req = append(req, encodeRequest(Request{Op: OpImport, User: fmt.Sprintf("u%d-%d", i, k), Learner: "MM", State: state})...)
		}
		go local.Write(req)
		r.Reset(local)
		for k := 0; k < 1+imports; k++ {
			if line, err := r.ReadSlice('\n'); err != nil || !bytes.Contains(line, []byte(`"ok":true`)) {
				t.Fatalf("reply %q, %v", line, err)
			}
		}
		conns[i] = local
	}
	heap1 := live()
	// The imported profiles are not the connection's: take them out.
	for i := range conns {
		for k := 0; k < imports; k++ {
			b.Unsubscribe(fmt.Sprintf("u%d-%d", i, k))
		}
	}
	heap2 := live()
	per := (float64(heap1) - float64(heap0) - (float64(heap1) - float64(heap2))) / n
	t.Logf("idle request connection: %.0f B", per)
	if per > budget {
		t.Errorf("an idle request connection holds %.0f B, budget %.0f", per, budget)
	}
	runtime.KeepAlive(conns)
}

// exportState is the Export of a profile seeded with 300 keywords: longer
// than a resting read buffer.
func exportState(t *testing.T, b *pubsub.Broker) []byte {
	t.Helper()
	var kws []string
	for i := 0; i < 300; i++ {
		kws = append(kws, "term"+string(rune('a'+i/26%26))+string(rune('a'+i%26)))
	}
	if _, err := b.SubscribeKeywords("seed", kws); err != nil {
		t.Fatal(err)
	}
	snap, err := b.ExportProfile("seed")
	if err != nil {
		t.Fatal(err)
	}
	b.Unsubscribe("seed")
	return snap.Data
}

// TestRefusedStateIsReadPast: an import whose profile rides in a "state"
// member, as base64, is answered with an error naming state_len and
// subscribes nobody, and a state_len on an op that takes no state is
// answered the same way with its bytes read past: the connection goes on
// with the next line.
func TestRefusedStateIsReadPast(t *testing.T) {
	srv, b := pipeServer(t, pubsub.Options{Threshold: 0.2})
	conn := pipeConn(t, srv)
	r := bufio.NewReader(conn)
	for _, c := range []struct{ req, reply string }{
		{`{"op":"import","user":"a","learner":"MM","state":"AQID"}` + "\n", `"ok":false`},
		{`{"op":"stats","state_len":3}` + "\n{}\n", `"ok":false`},
		{`{"op":"stats"}` + "\n", `"ok":true`},
	} {
		go conn.Write([]byte(c.req))
		line, err := r.ReadSlice('\n')
		if err != nil || !bytes.Contains(line, []byte(c.reply)) || c.reply == `"ok":false` && !bytes.Contains(line, []byte("state_len")) {
			t.Fatalf("%q: reply %q, %v; want %s", c.req, line, err, c.reply)
		}
	}
	if _, ok := b.Subscription("a"); ok {
		t.Error("an import with a state member subscribed its user")
	}
}

// TestReadRequestKeepsWhatFollows: a request ends at its newline, so what
// a client sent behind it — the next request, or a byte behind a session
// request — is still there, and a grown buffer shrinks back once the next
// request is asked for.
func TestReadRequestKeepsWhatFollows(t *testing.T) {
	big := strings.Repeat("x", 3*minReadBuf)
	stream := `{"op":"publish","content":"` + big + `"}` + "\n" + `{"op":"stats"}` + "\n"
	rd := newRequestReader(&chunkReader{b: []byte(stream), cuts: ^uint64(0)})
	var req Request
	if err := rd.next(&req); err != nil || req.Content != big {
		t.Fatalf("first request: %v", err)
	}
	if rest := string(rd.buffered()); !strings.HasPrefix(`{"op":"stats"}`+"\n", rest) {
		t.Errorf("buffered %q", rest)
	}
	req = Request{}
	if err := rd.next(&req); err != nil || req.Op != OpStats {
		t.Fatalf("second request: %+v, %v", req, err)
	}
	if len(rd.buf) != minReadBuf {
		t.Errorf("buffer of %d bytes after the request behind the long one, want %d", len(rd.buf), minReadBuf)
	}
	if err := rd.next(&req); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last request: %v, want EOF", err)
	}
}

// TestPipeRequestOfAnyLengthIsAnswered: a client writes each request and
// its newline in one Write, which net.Pipe returns from only once the
// server has read every byte. A read that stopped at the closing brace
// would answer the request with the newline still unread and the client
// still writing: both sides blocked. Every length up to a few buffers, on
// one connection, must round-trip.
func TestPipeRequestOfAnyLengthIsAnswered(t *testing.T) {
	srv, _ := pipeServer(t, pubsub.Options{Threshold: 0.2})
	conn := pipeConn(t, srv)
	if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for n := 0; n < 6*minReadBuf; n++ {
		req := `{"op":"stats","user":"` + strings.Repeat("u", n) + `"}` + "\n"
		if _, err := conn.Write([]byte(req)); err != nil {
			t.Fatalf("request of %d bytes: write: %v", len(req), err)
		}
		if line, err := r.ReadSlice('\n'); err != nil || !bytes.Contains(line, []byte(`"ok":true`)) {
			t.Fatalf("request of %d bytes: reply %q, %v", len(req), line, err)
		}
	}
}
