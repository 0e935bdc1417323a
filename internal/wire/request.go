package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxRequestBytes bounds one request, its line and its attachment
// together: a connection that sends this many bytes without ending its
// line, or whose line announces a state_len that would take the request
// past it, is closed. The largest legitimate request is the import of a
// maximal profile's Export: 768 MM vectors — five times the 139 of the
// broadest profile the Fig. 7 sweep grows (EXPERIMENTS.md E4) — each of
// vsm.MaxDocumentTerms terms at the text pipeline's longest word (25
// bytes) with its 8-byte weight, 768 × (100 × 34 + 15) B ≈ 2.6 MB of raw
// state (TestMaximalProfileRoundTrip), inside 4 MiB with room for the line.
const maxRequestBytes = 4 << 20

// minReadBuf is a connection's read buffer at rest and the least room a
// read is given, as in json.Decoder, so an idle connection holds no more
// than it did (TestIdleRequestConnBytes). A request that leaves less room
// doubles the buffer, up to maxRequestBytes, and once that request is
// answered the buffer goes back to this size and the grown one to readBufs.
const minReadBuf = 512

// readBufs holds read buffers grown for a long request, for the next long
// request on any connection: a run of imports reads them all into the same
// few arrays.
var readBufs sync.Pool // *[]byte

var errTooLong = fmt.Errorf("wire: request longer than %d bytes", maxRequestBytes)

// refusal is a request the server answers with an error and reads past:
// its line and its attachment were read whole, so the next line parses.
type refusal string

func (r refusal) Error() string { return string(r) }

const errStateMember = refusal(`wire: a profile travels as "state_len" and that many raw bytes after the line, not as a "state" member`)

// requestReader reads Requests off a connection, one per line, each
// followed by its attachment when it announces one. A line in the form
// json.Encoder writes a Request in is decoded in one pass over its bytes
// (decodeLine); any other line is whatever json.Unmarshal makes of it
// (FuzzReadRequest). Blank lines are skipped, and at the end of the stream
// the bytes after the last newline are a last line.
type requestReader struct {
	src io.Reader
	buf []byte
	off int   // the first byte not yet returned in a request
	end int   // buf[:end] has been read
	err error // the read error that ends the stream once buf[off:end] is used
}

func newRequestReader(src io.Reader) *requestReader {
	return &requestReader{src: src}
}

// next reads the next request into req, which must be zero. It returns
// io.EOF when the stream ends between requests, and a refusal for a
// request to answer with an error and read on past. req.State is the
// attachment where it lies in the reader's buffer, valid until the next
// call: the caller answers a request before it asks for the next one.
func (rd *requestReader) next(req *Request) error {
	// The last request is answered, so a buffer grown for it is free to
	// go, unless what was read past it needs the room.
	if len(rd.buf) > minReadBuf && rd.end-rd.off <= minReadBuf {
		grown := rd.buf
		rd.buf = make([]byte, minReadBuf)
		rd.end = copy(rd.buf, grown[rd.off:rd.end])
		rd.off = 0
		readBufs.Put(&grown)
	}
	for {
		line, err := rd.line()
		if err != nil {
			return err
		}
		if len(bytes.TrimLeft(line, " \t\r")) == 0 {
			continue
		}
		stateMember := false
		if !decodeLine(line, req) {
			// Declared here, so only a line that falls back pays for the
			// Request json.Unmarshal moves to the heap. The State member
			// catches a "state" key, spelt in any case json matches.
			var v struct {
				Request
				State json.RawMessage `json:"state"`
			}
			if err := json.Unmarshal(line, &v); err != nil {
				return fmt.Errorf("wire: request: %w", err)
			}
			*req, stateMember = v.Request, v.State != nil
		}
		n := req.StateLen
		if bound := maxRequestBytes - len(line) - 1; n < 0 || n > bound {
			return fmt.Errorf("wire: request: state_len %d outside [0, %d]", n, bound)
		}
		if n > 0 {
			if req.State, err = rd.attachment(n); err != nil {
				return err
			}
		}
		switch {
		case stateMember:
			return errStateMember
		case n > 0 && req.Op != OpImport:
			return refusal(fmt.Sprintf(`wire: op %q takes no "state_len"`, req.Op))
		}
		return nil
	}
}

// buffered returns the bytes read past the last request.
func (rd *requestReader) buffered() []byte { return rd.buf[rd.off:rd.end] }

// line returns the next line without its newline, valid until the next
// call. A line that fills maxRequestBytes is errTooLong.
func (rd *requestReader) line() ([]byte, error) {
	scanned := 0 // buf[off:off+scanned] holds no newline
	for {
		if i := bytes.IndexByte(rd.buf[rd.off+scanned:rd.end], '\n'); i >= 0 {
			line := rd.buf[rd.off : rd.off+scanned+i]
			rd.off += scanned + i + 1
			return line, nil
		}
		scanned = rd.end - rd.off
		if rd.err != nil {
			if rd.err != io.EOF || rd.off == rd.end {
				return nil, rd.err
			}
			line := rd.buf[rd.off:rd.end]
			rd.off = rd.end
			return line, nil
		}
		if err := rd.fill(); err != nil {
			return nil, err
		}
	}
}

// attachment returns the n bytes that follow the line just returned, valid
// until the next call to line; n leaves room for that line within
// maxRequestBytes. The buffer grows as the bytes arrive, not as the line
// announces them.
func (rd *requestReader) attachment(n int) ([]byte, error) {
	for rd.end-rd.off < n {
		if rd.err != nil {
			if rd.err == io.EOF {
				return nil, fmt.Errorf("wire: request: state: %w", io.ErrUnexpectedEOF)
			}
			return nil, rd.err
		}
		if err := rd.fill(); err != nil {
			return nil, err
		}
	}
	b := rd.buf[rd.off : rd.off+n : rd.off+n]
	rd.off += n
	return b, nil
}

// fill reads once into the room after end, first made at least
// minReadBuf where it can be: by dropping what was already returned and
// then by doubling the buffer, as far as maxRequestBytes. A full buffer of
// that size is errTooLong.
func (rd *requestReader) fill() error {
	if len(rd.buf)-rd.end < minReadBuf && rd.off > 0 {
		rd.end = copy(rd.buf, rd.buf[rd.off:rd.end])
		rd.off = 0
	}
	if len(rd.buf)-rd.end < minReadBuf && len(rd.buf) < maxRequestBytes {
		n := min(max(2*len(rd.buf), minReadBuf), maxRequestBytes)
		var grown []byte
		if p, _ := readBufs.Get().(*[]byte); p != nil && len(*p) >= n {
			grown = *p
		} else {
			grown = make([]byte, n)
		}
		copy(grown, rd.buf[:rd.end])
		rd.buf = grown
	}
	room := rd.buf[rd.end:]
	if len(room) == 0 {
		return errTooLong
	}
	var n int
	n, rd.err = rd.src.Read(room)
	rd.end += n
	return nil
}

// Request's members, in the order requestFields names them.
const (
	fieldOp = iota
	fieldUser
	fieldLearner
	fieldKeywords
	fieldContent
	fieldDoc
	fieldRelevant
	fieldBatch
	fieldStateLen
	fieldTrace
)

// requestFields are Request's JSON member names.
var requestFields = [...]string{"op", "user", "learner", "keywords", "content", "doc", "relevant", "batch", "state_len", "trace"}

// decodeLine decodes line into req, which must be zero, if the line is in
// the form json.Encoder writes a Request in: one object with no
// whitespace, each member a distinct known key, spelt exactly, with a
// value of its field's type — a string, an integer, true or false, or an
// array of strings. It reports whether it did; on false req may be partly
// filled, and the line is json.Unmarshal's to decode or refuse: a "state"
// key is not one it knows. On true, req is what json.Unmarshal makes of
// the line (FuzzReadRequest).
func decodeLine(line []byte, req *Request) bool {
	if len(line) < 2 || line[0] != '{' {
		return false
	}
	p := line[1:]
	if p[0] == '}' {
		return len(p) == 1
	}
	var seen uint16
	for {
		if p[0] != '"' {
			return false
		}
		q := bytes.IndexByte(p[1:], '"')
		if q < 0 {
			return false
		}
		f := fieldOf(p[1 : 1+q])
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		if p = p[q+2:]; len(p) == 0 || p[0] != ':' {
			return false
		}
		var ok bool
		if p, ok = member(req, f, p[1:]); !ok || len(p) == 0 {
			return false
		}
		switch p[0] {
		case '}':
			return len(p) == 1
		case ',':
			if p = p[1:]; len(p) == 0 {
				return false
			}
		default:
			return false
		}
	}
}

// fieldOf is the field key names exactly, or -1.
func fieldOf(key []byte) int {
	for f, name := range requestFields {
		if string(key) == name {
			return f
		}
	}
	return -1
}

// member decodes the value at the start of p into field f and returns
// what follows it, or false if the value is not one decodeLine takes.
func member(req *Request, f int, p []byte) ([]byte, bool) {
	var ok bool
	switch f {
	case fieldOp:
		var s string
		s, p, ok = str(p)
		req.Op = Op(s)
	case fieldUser:
		req.User, p, ok = str(p)
	case fieldLearner:
		req.Learner, p, ok = str(p)
	case fieldContent:
		req.Content, p, ok = str(p)
	case fieldTrace:
		req.Trace, p, ok = str(p)
	case fieldKeywords:
		req.Keywords, p, ok = strs(p)
	case fieldDoc:
		req.Doc, p, ok = integer(p, 64)
	case fieldBatch:
		var n int64
		n, p, ok = integer(p, strconv.IntSize)
		req.Batch = int(n)
	case fieldStateLen:
		var n int64
		n, p, ok = integer(p, strconv.IntSize)
		req.StateLen = int(n)
	case fieldRelevant:
		switch {
		case bytes.HasPrefix(p, []byte("true")):
			req.Relevant, p, ok = true, p[4:], true
		case bytes.HasPrefix(p, []byte("false")):
			p, ok = p[5:], true
		}
	}
	return p, ok
}

// strs decodes an array of strings at the start of p. [] is empty, not
// nil, as json.Unmarshal leaves it.
func strs(p []byte) ([]string, []byte, bool) {
	if len(p) < 2 || p[0] != '[' {
		return nil, p, false
	}
	if p[1] == ']' {
		return []string{}, p[2:], true
	}
	var ks []string
	for p = p[1:]; ; p = p[1:] {
		s, rest, ok := str(p)
		if !ok || len(rest) == 0 {
			return nil, p, false
		}
		ks, p = append(ks, s), rest
		switch p[0] {
		case ']':
			return ks, p[1:], true
		case ',':
		default:
			return nil, p, false
		}
	}
}

// integer decodes an integer that fits in bits at the start of p: an
// optional minus and digits with no leading zero.
func integer(p []byte, bits int) (int64, []byte, bool) {
	i := 0
	if len(p) > 0 && p[0] == '-' {
		i++
	}
	j := i
	for j < len(p) && '0' <= p[j] && p[j] <= '9' {
		j++
	}
	if j == i || p[i] == '0' && j > i+1 {
		return 0, p, false
	}
	n, err := strconv.ParseInt(string(p[:j]), 10, bits)
	return n, p[j:], err == nil
}

// plainByte marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes a string at the start of p. A string of plain bytes is
// copied as it stands; escapes and bytes outside ASCII go through unquote.
func str(p []byte) (string, []byte, bool) {
	if len(p) == 0 || p[0] != '"' {
		return "", p, false
	}
	plain := true
	for i := 1; i < len(p); {
		c := p[i]
		switch {
		case plainByte[c]:
			i++
		case c == '"':
			if plain {
				return string(p[1:i]), p[i+1:], true
			}
			return unquote(p[1:i]), p[i+1:], true
		case c == '\\':
			plain = false
			if i+1 == len(p) {
				return "", p, false
			}
			switch p[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(p) || hex4(p[i+2:i+6]) < 0 {
					return "", p, false
				}
				i += 6
			default:
				return "", p, false
			}
		case c < 0x20:
			return "", p, false
		default: // not ASCII: resolved as UTF-8 by unquote
			plain = false
			i++
		}
	}
	return "", p, false
}

// hex4 is the value of four hex digits, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote is the value of a string str found not plain, as encoding/json
// computes it: escapes resolved, a \u surrogate pair joined, and a lone
// surrogate, or a byte that does not begin valid UTF-8, replaced by
// U+FFFD.
func unquote(raw []byte) string {
	var sb strings.Builder
	sb.Grow(len(raw))
	for len(raw) > 0 {
		i := 0
		for i < len(raw) && raw[i] != '\\' && raw[i] < utf8.RuneSelf {
			i++
		}
		sb.Write(raw[:i])
		if raw = raw[i:]; len(raw) == 0 {
			break
		}
		if raw[0] != '\\' {
			r, n := utf8.DecodeRune(raw)
			sb.WriteRune(r)
			raw = raw[n:]
			continue
		}
		switch c := raw[1]; c {
		case 'u':
			r := hex4(raw[2:])
			raw = raw[6:]
			if utf16.IsSurrogate(r) {
				if len(raw) >= 6 && raw[0] == '\\' && raw[1] == 'u' {
					if pair := utf16.DecodeRune(r, hex4(raw[2:])); pair != unicode.ReplacementChar {
						sb.WriteRune(pair)
						raw = raw[6:]
						continue
					}
				}
				r = unicode.ReplacementChar
			}
			sb.WriteRune(r)
			continue
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		default: // " \ /
			sb.WriteByte(c)
		}
		raw = raw[2:]
	}
	return sb.String()
}
