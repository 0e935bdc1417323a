package wire

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxRequestBytes bounds one request: a connection that sends this many
// bytes without closing its object is refused. The largest legitimate
// request is the import of a maximal profile's Export: 768 MM vectors —
// five times the 139 of the broadest profile the Fig. 7 sweep grows
// (EXPERIMENTS.md E4) — each of vsm.MaxDocumentTerms terms at the text
// pipeline's longest word (25 bytes) with its 8-byte weight, 768 × (100 ×
// 34 + 15) B ≈ 2.6 MB of state. As base64 that is 3.5 MB, inside 4 MiB
// with room for the rest of the request.
const maxRequestBytes = 4 << 20

// minReadBuf is a connection's read buffer at rest and the least room a
// read is given, as in json.Decoder, so an idle connection holds no more
// than it did (TestIdleRequestConnBytes). A request that leaves less room
// doubles the buffer, up to maxRequestBytes, and once that request is
// parsed the buffer goes back to this size and the grown one to readBufs.
const minReadBuf = 512

// readBufs holds read buffers grown for a long request, for the next long
// request on any connection: a run of imports reads them all into the same
// few arrays.
var readBufs sync.Pool // *[]byte

// maxDepth is encoding/json's nesting limit, which an unknown member's
// value must respect too.
const maxDepth = 10000

var errTooLong = fmt.Errorf("wire: request longer than %d bytes", maxRequestBytes)

// requestReader reads Requests off a connection in one pass over their
// bytes. What it yields, and which streams it refuses, is what
// json.Decoder.Decode into a Request yields and refuses (FuzzReadRequest):
// escapes and surrogate pairs, U+FFFD for bytes that are not UTF-8, keys
// matched ignoring case, the last of duplicate keys, null, unknown members
// validated and skipped, integers in int64. A request ends at its closing
// brace; whatever follows stays buffered for the next one.
type requestReader struct {
	src   io.Reader
	buf   []byte
	off   int   // the next byte to parse
	end   int   // buf[:end] has been read
	start int   // the first byte of the request being parsed; -1 between requests
	err   error // the read error that ends the stream once buf[off:end] is parsed
	brim  bool  // the last read filled all the room it was given
}

func newRequestReader(src io.Reader) *requestReader {
	return &requestReader{src: src, start: -1}
}

// next reads the next request into req, which must be zero. A top-level
// null leaves it zero, as it leaves json.Decoder's target. next returns
// io.EOF when the stream ends between requests.
func (rd *requestReader) next(req *Request) error {
	c, err := rd.skipSpace()
	if err != nil {
		return err
	}
	rd.start = rd.off
	switch c {
	case '{':
		err = rd.object(req)
	case 'n':
		err = rd.literal("null")
	default:
		err = errors.New("wire: a request is a JSON object")
	}
	rd.start = -1
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	// A request whose closing brace ended a read that filled its room may
	// have more of the client's write behind it, such as the newline
	// wire.Client sends. Over net.Pipe that client is still in Write until
	// every byte is read, so a reply written now would block both sides
	// (TestPipeRequestOfAnyLengthIsAnswered). Read on once; an error is
	// kept for the next call.
	if err == nil && rd.off == rd.end && rd.brim {
		_ = rd.fill()
	}
	if err == nil && len(rd.buf) > minReadBuf && rd.end-rd.off <= minReadBuf {
		grown := rd.buf
		rd.buf = make([]byte, minReadBuf)
		rd.end = copy(rd.buf, grown[rd.off:rd.end])
		rd.off = 0
		readBufs.Put(&grown)
	}
	return err
}

// buffered returns the bytes read past the last request.
func (rd *requestReader) buffered() []byte { return rd.buf[rd.off:rd.end] }

// fill reads more bytes into at least minReadBuf of room. It makes room by
// dropping what is parsed and not part of the current request — so
// positions held across it are kept relative to start — and then, if that
// is not enough, by growing the buffer. A read error is returned once
// everything read before it is parsed.
func (rd *requestReader) fill() error {
	for rd.err == nil {
		keep := rd.off
		if rd.start >= 0 {
			keep = rd.start
		}
		if len(rd.buf)-rd.end < minReadBuf && keep > 0 {
			rd.end = copy(rd.buf, rd.buf[keep:rd.end])
			rd.off -= keep
			if rd.start >= 0 {
				rd.start = 0
			}
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
		rd.brim = n == len(room)
		if n > 0 {
			return nil
		}
	}
	return rd.err
}

// peek returns the next byte without consuming it.
func (rd *requestReader) peek() (byte, error) {
	if rd.off == rd.end {
		if err := rd.fill(); err != nil {
			return 0, err
		}
	}
	return rd.buf[rd.off], nil
}

// skipSpace consumes JSON whitespace and returns the byte after it, which
// it does not consume.
func (rd *requestReader) skipSpace() (byte, error) {
	for {
		for ; rd.off < rd.end; rd.off++ {
			if c := rd.buf[rd.off]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, nil
			}
		}
		if err := rd.fill(); err != nil {
			return 0, err
		}
	}
}

func syntaxError(c byte, where string) error {
	return fmt.Errorf("wire: invalid character %q %s", c, where)
}

// literal consumes lit, whose first byte is the next one.
func (rd *requestReader) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		c, err := rd.peek()
		if err != nil {
			return err
		}
		if c != lit[i] {
			return syntaxError(c, "in literal "+lit)
		}
		rd.off++
	}
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
	fieldState
	fieldTrace
)

// requestFields are Request's JSON member names.
var requestFields = [...]string{"op", "user", "learner", "keywords", "content", "doc", "relevant", "batch", "state", "trace"}

// object decodes the members of the object whose brace is the next byte.
func (rd *requestReader) object(req *Request) error {
	rd.off++
	c, err := rd.skipSpace()
	if err != nil {
		return err
	}
	if c == '}' {
		rd.off++
		return nil
	}
	for {
		if c != '"' {
			return syntaxError(c, "looking for beginning of object key string")
		}
		f, err := rd.key()
		if err != nil {
			return err
		}
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		if c != ':' {
			return syntaxError(c, "after object key")
		}
		rd.off++
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		if err := rd.member(req, f, c); err != nil {
			return err
		}
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		rd.off++
		switch c {
		case '}':
			return nil
		case ',':
		default:
			return syntaxError(c, "after object key:value pair")
		}
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
	}
}

// key consumes a member name and returns the field it names, or -1. Names
// match ignoring case as encoding/json matches them, by Unicode simple
// folding: "K" (Kelvin) is k and "ſ" (long s) is s.
func (rd *requestReader) key() (int, error) {
	raw, plain, err := rd.scanString()
	if err != nil {
		return -1, err
	}
	if !plain {
		raw = []byte(unquote(raw))
	}
	for f, name := range requestFields {
		if bytes.EqualFold(raw, []byte(name)) {
			return f, nil
		}
	}
	return -1, nil
}

// member decodes one member's value, whose first byte is c, into field f
// as encoding/json would: null leaves a string, a number or a bool as it
// was and empties a slice, a value of another type is an error, and an
// unknown member's value is validated and dropped.
func (rd *requestReader) member(req *Request, f int, c byte) error {
	if c == 'n' {
		switch f {
		case fieldKeywords:
			req.Keywords = nil
		case fieldState:
			req.State = nil
		}
		return rd.literal("null")
	}
	var ok bool
	switch f {
	case fieldOp, fieldUser, fieldLearner, fieldContent, fieldTrace, fieldState:
		ok = c == '"'
	case fieldKeywords:
		ok = c == '['
	case fieldDoc, fieldBatch:
		ok = c == '-' || '0' <= c && c <= '9'
	case fieldRelevant:
		ok = c == 't' || c == 'f'
	default:
		return rd.skipValue(c, 1)
	}
	if !ok {
		return fmt.Errorf("wire: %s %s", requestFields[f], typeMismatch(c))
	}
	var err error
	switch f {
	case fieldOp:
		var s string
		s, err = rd.str()
		req.Op = Op(s)
	case fieldUser:
		req.User, err = rd.str()
	case fieldLearner:
		req.Learner, err = rd.str()
	case fieldContent:
		req.Content, err = rd.str()
	case fieldTrace:
		req.Trace, err = rd.str()
	case fieldState:
		req.State, err = rd.base64()
	case fieldKeywords:
		err = rd.keywords(req)
	case fieldDoc:
		req.Doc, err = rd.int64()
	case fieldBatch:
		var n int64
		n, err = rd.int64()
		req.Batch = int(n)
	case fieldRelevant:
		req.Relevant = c == 't'
		if req.Relevant {
			err = rd.literal("true")
		} else {
			err = rd.literal("false")
		}
	}
	return err
}

// typeMismatch names what a value that begins with c cannot be decoded as.
func typeMismatch(c byte) string {
	switch c {
	case '"':
		return "cannot be a string"
	case '{':
		return "cannot be an object"
	case '[':
		return "cannot be an array"
	case 't', 'f':
		return "cannot be a bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		return "cannot be a number"
	}
	return fmt.Sprintf("cannot begin with %q", c)
}

// keywords decodes a string array into req.Keywords the way encoding/json
// fills a slice: element i goes into the slice already there, whose
// element a null leaves as it was, the slice grows as append grows it, and
// it ends at the last element — [] is empty, not nil.
func (rd *requestReader) keywords(req *Request) error {
	ks := req.Keywords
	rd.off++
	c, err := rd.skipSpace()
	if err != nil {
		return err
	}
	i := 0
	for c != ']' {
		if i == len(ks) {
			if i < cap(ks) {
				ks = ks[:i+1]
			} else {
				ks = append(ks, "")
			}
		}
		switch c {
		case 'n':
			err = rd.literal("null")
		case '"':
			ks[i], err = rd.str()
		default:
			err = fmt.Errorf("wire: keywords element %s", typeMismatch(c))
		}
		if err != nil {
			return err
		}
		i++
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		if c == ']' {
			break
		}
		if c != ',' {
			return syntaxError(c, "after array element")
		}
		rd.off++
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		if c == ']' {
			return syntaxError(c, "looking for beginning of value")
		}
	}
	rd.off++
	if i == 0 {
		ks = []string{}
	}
	req.Keywords = ks[:i]
	return nil
}

// int64 decodes a number that must be an integer in int64's range.
func (rd *requestReader) int64() (int64, error) {
	raw, err := rd.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: number %s is not an int64", raw)
	}
	return n, nil
}

// number consumes a JSON number and returns its text, valid until the next
// read.
func (rd *requestReader) number() ([]byte, error) {
	s := rd.off - rd.start
	c, err := rd.peek()
	if err != nil {
		return nil, err
	}
	if c == '-' {
		rd.off++
		if c, err = rd.peek(); err != nil {
			return nil, err
		}
	}
	switch {
	case c == '0':
		rd.off++
	case '1' <= c && c <= '9':
		if _, err := rd.digits(); err != nil {
			return nil, err
		}
	default:
		return nil, syntaxError(c, "in numeric literal")
	}
	if c, err = rd.peek(); err != nil {
		return nil, err
	}
	if c == '.' {
		rd.off++
		if n, err := rd.digits(); n == 0 {
			return nil, orSyntax(err, rd, "after decimal point in numeric literal")
		}
		if c, err = rd.peek(); err != nil {
			return nil, err
		}
	}
	if c == 'e' || c == 'E' {
		rd.off++
		if c, err = rd.peek(); err != nil {
			return nil, err
		}
		if c == '+' || c == '-' {
			rd.off++
		}
		if n, err := rd.digits(); n == 0 {
			return nil, orSyntax(err, rd, "in exponent of numeric literal")
		}
	}
	return rd.buf[rd.start+s : rd.off], nil
}

// digits consumes decimal digits and returns how many.
func (rd *requestReader) digits() (int, error) {
	for n := 0; ; n++ {
		c, err := rd.peek()
		if err != nil || c < '0' || c > '9' {
			return n, err
		}
		rd.off++
	}
}

// orSyntax is err, or when there is none, a syntax error at the next byte.
func orSyntax(err error, rd *requestReader, where string) error {
	if err != nil {
		return err
	}
	return syntaxError(rd.buf[rd.off], where)
}

// skipValue validates and drops one value whose first byte is c, nested in
// depth containers.
func (rd *requestReader) skipValue(c byte, depth int) error {
	switch c {
	case '"':
		_, _, err := rd.scanString()
		return err
	case 't':
		return rd.literal("true")
	case 'f':
		return rd.literal("false")
	case 'n':
		return rd.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		_, err := rd.number()
		return err
	case '{', '[':
	default:
		return syntaxError(c, "looking for beginning of value")
	}
	if depth >= maxDepth {
		return errors.New("wire: exceeded max depth")
	}
	end := byte(']')
	if c == '{' {
		end = '}'
	}
	rd.off++
	c, err := rd.skipSpace()
	if err != nil {
		return err
	}
	if c == end {
		rd.off++
		return nil
	}
	for {
		if end == '}' {
			if c != '"' {
				return syntaxError(c, "looking for beginning of object key string")
			}
			if _, _, err := rd.scanString(); err != nil {
				return err
			}
			if c, err = rd.skipSpace(); err != nil {
				return err
			}
			if c != ':' {
				return syntaxError(c, "after object key")
			}
			rd.off++
			if c, err = rd.skipSpace(); err != nil {
				return err
			}
		}
		if err := rd.skipValue(c, depth+1); err != nil {
			return err
		}
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
		rd.off++
		if c == end {
			return nil
		}
		if c != ',' {
			return syntaxError(c, "after value")
		}
		if c, err = rd.skipSpace(); err != nil {
			return err
		}
	}
}

// str decodes a string.
func (rd *requestReader) str() (string, error) {
	raw, plain, err := rd.scanString()
	if err != nil {
		return "", err
	}
	if plain {
		return string(raw), nil
	}
	return unquote(raw), nil
}

// plainByte marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString consumes a string whose opening quote is the next byte and
// returns what lies between its quotes, escapes unresolved and valid until
// the next read, and whether those bytes are plain: all of them plainByte,
// so they are the string.
func (rd *requestReader) scanString() (raw []byte, plain bool, err error) {
	s := rd.off + 1 - rd.start
	i, plain := s, true
	for {
		b := rd.buf[rd.start:rd.end]
	scan:
		for i < len(b) {
			c := b[i]
			if plainByte[c] {
				i++
				continue
			}
			switch {
			case c == '"':
				rd.off = rd.start + i + 1
				return b[s:i], plain, nil
			case c == '\\':
				plain = false
				if i+1 >= len(b) {
					break scan
				}
				switch b[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
				case 'u':
					if i+6 > len(b) {
						break scan
					}
					if hex4(b[i+2:i+6]) < 0 {
						return nil, false, errors.New("wire: invalid \\u escape in string literal")
					}
					i += 6
				default:
					return nil, false, syntaxError(b[i+1], "in string escape code")
				}
			case c < 0x20:
				return nil, false, syntaxError(c, "in string literal")
			default: // not ASCII: resolved as UTF-8 by unquote
				plain = false
				i++
			}
		}
		rd.off = rd.start + i
		if err := rd.fill(); err != nil {
			return nil, false, err
		}
	}
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

// unquote is the value of a string scanString found not plain, as
// encoding/json computes it: escapes resolved, a \u surrogate pair joined,
// and a lone surrogate, or a byte that does not begin valid UTF-8,
// replaced by U+FFFD.
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

// base64 decodes a base64 string, as encoding/json decodes one into a
// []byte. A string with no escape — every one an encoder writes — is
// decoded straight out of the read buffer, found by its closing quote.
func (rd *requestReader) base64() ([]byte, error) {
	s := rd.off + 1 - rd.start
	for i := s; ; {
		b := rd.buf[rd.start:rd.end]
		if q := bytes.IndexByte(b[i:], '"'); q >= 0 {
			raw := b[s : i+q]
			if bytes.IndexByte(raw, '\\') >= 0 {
				break
			}
			rd.off = rd.start + i + q + 1
			// The decoder skips \r and \n, which a JSON string may not hold
			// raw; every other byte it accepts is one a string may hold.
			if bytes.IndexByte(raw, '\n') >= 0 || bytes.IndexByte(raw, '\r') >= 0 {
				return nil, errors.New("wire: invalid character in string literal")
			}
			return decodeBase64(raw)
		}
		i = len(b)
		if err := rd.fill(); err != nil {
			return nil, err
		}
	}
	rd.off = rd.start + s - 1
	str, err := rd.str()
	if err != nil {
		return nil, err
	}
	return decodeBase64([]byte(str))
}

func decodeBase64(src []byte) ([]byte, error) {
	b := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(b, src)
	if err != nil {
		return nil, fmt.Errorf("wire: state: %w", err)
	}
	return b[:n], nil
}
