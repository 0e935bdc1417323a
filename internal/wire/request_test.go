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

	"mmprofile/internal/pubsub"
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

// checkReadRequest decodes stream with json.Decoder and with the request
// reader, split by cuts, and fails unless they agree request by request
// up to json's first error, which the reader must share.
func checkReadRequest(t *testing.T, stream []byte, cuts uint64) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(stream))
	rd := newRequestReader(&chunkReader{b: stream, cuts: cuts})
	for i := 0; ; i++ {
		var want, got Request
		werr := dec.Decode(&want)
		gerr := rd.next(&got)
		if werr != nil {
			if gerr == nil {
				t.Fatalf("request %d of %q: json.Decoder: %v; reader: %+v", i, stream, werr, got)
			}
			if (werr == io.EOF) != (gerr == io.EOF) {
				t.Fatalf("request %d of %q: json.Decoder: %v; reader: %v", i, stream, werr, gerr)
			}
			return
		}
		if gerr != nil {
			t.Fatalf("request %d of %q: json.Decoder: %+v; reader: %v", i, stream, want, gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d of %q:\nreader        %#v\njson.Decoder  %#v", i, stream, got, want)
		}
	}
}

// readRequestSeeds are every op wire.Client sends, as it sends them, and
// the corners of the grammar a hand-written reader gets wrong.
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
	)
}

// FuzzReadRequest: for any byte stream, split at any points, the request
// reader yields the Requests json.Decoder decodes, and errors where it
// errors.
func FuzzReadRequest(f *testing.F) {
	for _, s := range readRequestSeeds() {
		f.Add([]byte(s), uint64(0))
		f.Add([]byte(s), uint64(0x0123456789abcdef))
		f.Add([]byte(s), ^uint64(0))
	}
	f.Fuzz(func(t *testing.T, stream []byte, cuts uint64) {
		if len(stream) >= maxRequestBytes {
			return // refused here, decoded there
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

// TestReadRequestKeepsWhatFollows: a request ends at its closing brace, so
// what a client sent behind it — the next request, or a session request's
// late newline — is still there, and a grown buffer shrinks back.
func TestReadRequestKeepsWhatFollows(t *testing.T) {
	big := strings.Repeat("x", 3*minReadBuf)
	stream := `{"op":"publish","content":"` + big + `"} {"op":"stats"}` + "\n"
	rd := newRequestReader(&chunkReader{b: []byte(stream), cuts: ^uint64(0)})
	var req Request
	if err := rd.next(&req); err != nil || req.Content != big {
		t.Fatalf("first request: %v", err)
	}
	if len(rd.buf) != minReadBuf {
		t.Errorf("buffer of %d bytes after the long request, want %d", len(rd.buf), minReadBuf)
	}
	if rest := string(rd.buffered()); !strings.HasPrefix(` {"op":"stats"}`+"\n", rest) {
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
