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
// fails unless it yields json.Unmarshal of each non-blank line, in order,
// up to the first line json refuses, which the reader must refuse too. A
// line the one-pass decoder takes must decode there as json decodes it.
func checkReadRequest(t *testing.T, stream []byte, cuts uint64) {
	t.Helper()
	rd := newRequestReader(&chunkReader{b: stream, cuts: cuts})
	for i, line := range bytes.Split(stream, []byte("\n")) {
		if len(bytes.TrimLeft(line, " \t\r")) == 0 {
			continue
		}
		var want, fast, got Request
		werr := json.Unmarshal(line, &want)
		if decodeLine(line, &fast) && (werr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("line %d %q:\none pass       %#v\njson.Unmarshal %#v, %v", i, line, fast, want, werr)
		}
		gerr := rd.next(&got)
		if werr != nil {
			if gerr == nil || errors.Is(gerr, io.EOF) {
				t.Fatalf("line %d %q: json.Unmarshal: %v; reader: %+v, %v", i, line, werr, got, gerr)
			}
			return
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

// readRequestSeeds are every op wire.Client sends, as it sends them, and
// the corners of the grammar where the one-pass decoder must step aside.
func readRequestSeeds() []string {
	var seeds []string
	for _, req := range []Request{
		{Op: OpSubscribe, User: "alice", Learner: "MM", Keywords: []string{"cats", "dogs"}},
		{Op: OpUnsubscribe, User: "alice"},
		{Op: OpPublish, Content: "<html><body>\n<p>cats & dogs</p>\t\u2028</body></html>", Trace: "0123456789abcdef-fedcba9876543210"},
		{Op: OpFeedback, User: "alice", Doc: 9223372036854775807, Relevant: true},
		{Op: OpFetch, Doc: -3},
		{Op: OpExport, User: "alice"},
		{Op: OpImport, User: "alice", Learner: "MM", State: []byte("\x01\x00\xff profile bytes \xfe")},
		{Op: OpImport, User: "bob", Learner: "MM", State: []byte{}},
		{Op: OpStats},
		{Op: OpSession, User: "alice", Batch: 16},
		{Op: OpProfile, User: "alice"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, string(b)+"\n")
	}
	return append(seeds,
		`{"op":"stats"}{"op":"profile","user":"a"}`+"\n"+`{"op":"stats"}`,
		`{"user":"\ud83d\ude00 \ud800 \udc00\ud800 \ud800\u0041 \ud83d\ud83d\ude00","content":"\u003c\/p\u003e\n\"\\\b\f\r\t"}`,
		"{\"user\":\"\xff\xfe a\xc3 \xed\xa0\x80 \xef\xbf\xbd\",\"op\":\"stats\"}",
		"{\"\u212aeywords\":[\"k\"],\"\u017ftate\":\"QUJD\",\"OP\":\"stats\",\"uSeR\":\"u\",\"\\u0064oc\":5}",
		`{"user":"a","user":"b","keywords":["x","y"],"keywords":["z"],"keywords":[null,null,"w"],"state":"QQ==","state":null}`,
		`{"keywords":["x"],"keywords":[],"doc":1,"doc":null,"relevant":true,"relevant":null,"op":null}`,
		`null`, `null{"op":"stats"}`, ` {} `, `nul`, `[]`, `"op"`, `5`, `true`,
		`{"x":{"y":[1,-2.5e+3,{"z":null}],"w":"\u00e9"},"op":"stats","v":[[],{}],"t":true,"f":false}`,
		`{"doc":1e2}`, `{"doc":1.0}`, `{"doc":9223372036854775808}`, `{"doc":-9223372036854775808}`,
		`{"doc":-0}`, `{"doc":01}`, `{"doc":-}`, `{"doc":"5"}`, `{"batch":1.5e300}`, `{"x":1.}`, `{"x":1e}`,
		`{"state":"QUJD\nRA=="}`, `{"state":"QUJDRA\u003d\u003d"}`, `{"state":"QUJ"}`, `{"state":"\u00ff"}`, "{\"state\":\"QU\nJD\"}",
		"{\"user\":\"a\x01\"}", `{"user":"\x"}`, `{"user":"\u12G4"}`, `{"op":"stats",}`, `{,}`, `{"op" "stats"}`,
		`{"keywords":["a",]}`, `{"keywords":[1]}`, `{"keywords":"a"}`, `{"relevant":"true"}`, `{"op":["stats"]}`,
		`{"x":[`+strings.Repeat("[", 10000)+strings.Repeat("]", 10000)+`]}`,
		`{"x":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`,"op":"stats"}`,
		"\r\n\t {\"op\":\"stats\"}\r\n\t ",
		"{\"op\":\"stats\"}\n\n \r\n{\"op\":\"profile\",\"user\":\"a\"}",
		`{"op":"stats"}`+"\n"+`{"op":"st`, `{"op":"stats"} `, `{"keywords":["a","b"]`,
		"{\"state\":\"QUJD\rRA==\"}\n", `{"relevant":false,"batch":-0,"keywords":[]}`,
	)
}

// TestClientTrafficTakesOnePass: every op wire.Client sends, with what a
// benchmark sends in it — corpus pages as content, a trained profile's
// Export as state, keyword lists, trace context — is decoded in one pass,
// never by json.Unmarshal, and as json.Unmarshal decodes it.
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
	// whether the one-pass decoder took it as json.Unmarshal takes it.
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
			if enc.Encode(resp) != nil {
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
	_, _, eerr := c.Export("alice")
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
// much the client goes on sending.
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
	_, err := local.Write([]byte(`{"op":"import","user":"u","learner":"MM","state":"`))
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
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "wire: decode") || !strings.Contains(logged[0], "longer than") {
		t.Errorf("logged %q, want one wire: decode line naming the limit", logged)
	}
}

// TestIdleRequestConnBytes: a request connection waiting for its next
// request holds no more heap than one did with a json.Decoder, which read
// 4.5–5.0 KB here — connection, pipe and handler included — even after an
// import that grew its read buffer.
func TestIdleRequestConnBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory counts as heap")
	}
	const n, budget = 2000, 4.5 * 1024
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
		req := fmt.Sprintf(`{"op":"stats"}`+"\n"+`{"op":"import","user":"u%d","learner":"MM","state":%q}`+"\n", i, state)
		go local.Write([]byte(req))
		r.Reset(local)
		for k := 0; k < 2; k++ {
			if line, err := r.ReadSlice('\n'); err != nil || !bytes.Contains(line, []byte(`"ok":true`)) {
				t.Fatalf("reply %q, %v", line, err)
			}
		}
		conns[i] = local
	}
	heap1 := live()
	// The imported profiles are not the connection's: take them out.
	for i := range conns {
		b.Unsubscribe(fmt.Sprintf("u%d", i))
	}
	heap2 := live()
	per := (float64(heap1) - float64(heap0) - (float64(heap1) - float64(heap2))) / n
	t.Logf("idle request connection: %.0f B", per)
	if per > budget {
		t.Errorf("an idle request connection holds %.0f B, budget %.0f", per, budget)
	}
	runtime.KeepAlive(conns)
}

// exportState is the base64 of the Export of a profile seeded with 300
// keywords: longer than a resting read buffer.
func exportState(t *testing.T, b *pubsub.Broker) string {
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
	state, err := json.Marshal(snap.Data)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Trim(string(state), `"`)
}

// TestReadRequestKeepsWhatFollows: a request ends at its newline, so what
// a client sent behind it — the next request, or a byte behind a session
// request — is still there, and a grown buffer shrinks back.
func TestReadRequestKeepsWhatFollows(t *testing.T) {
	big := strings.Repeat("x", 3*minReadBuf)
	stream := `{"op":"publish","content":"` + big + `"}` + "\n" + `{"op":"stats"}` + "\n"
	rd := newRequestReader(&chunkReader{b: []byte(stream), cuts: ^uint64(0)})
	var req Request
	if err := rd.next(&req); err != nil || req.Content != big {
		t.Fatalf("first request: %v", err)
	}
	if len(rd.buf) != minReadBuf {
		t.Errorf("buffer of %d bytes after the long request, want %d", len(rd.buf), minReadBuf)
	}
	if rest := string(rd.buffered()); !strings.HasPrefix(`{"op":"stats"}`+"\n", rest) {
		t.Errorf("buffered %q", rest)
	}
	req = Request{}
	if err := rd.next(&req); err != nil || req.Op != OpStats {
		t.Fatalf("second request: %+v, %v", req, err)
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
