package text

import (
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"mmprofile/internal/intern"
	"mmprofile/internal/metrics"
)

// Pipeline converts raw pages into term lists following the paper's
// Figure 3: remove HTML tags → tokenize plain text → remove non-words →
// remove stop words → stem. Each step can be disabled for experimentation,
// before the first call to Terms; the zero value is not usable, construct
// with NewPipeline. Terms may be called from many goroutines at once.
type Pipeline struct {
	// StripMarkup controls the HTML-tag-removal stage. Disable when the
	// input is already plain text.
	StripMarkup bool
	// RemoveStopWords controls stop-list removal.
	RemoveStopWords bool
	// StemTerms controls Porter stemming.
	StemTerms bool

	// cache remembers what became of a token — dropped, or its term — so
	// that the stop list, the stemmer and the term's string are paid for
	// once per distinct token, not once per occurrence. It is direct-mapped
	// and of fixed size: whatever publishers send, it holds at most
	// termCacheSlots entries, each overwritten by the next token that
	// hashes to its slot.
	cache [termCacheSlots]atomic.Pointer[cachedToken]

	hits, misses *metrics.Counter // nil until Instrument
}

// termCacheSlots is the token cache's size: 256 KB of pointers plus 48
// bytes per filled slot. It is a constant because it is a bound, not a
// tuning knob. The evaluation corpus (perf's 1 000 pages: 264 000 word
// tokens, 27 000 distinct, each seen ten times — far flatter than real
// text) hits 84 % of its tokens at 2^14 slots, 90 % at 2^15 and 95 % at
// 2^16; a miss costs one small allocation, so past 2^15 there is nothing
// left to buy.
const termCacheSlots = 1 << 15

// maxWordLen is the non-word filter's upper bound (IsWord), and so the
// longest token the cache ever sees.
const maxWordLen = 25

// cachedToken is one cache entry, immutable once published: the token, as
// lower-cased bytes, and the term it yields — "" when the stop list dropped
// it.
type cachedToken struct {
	term string
	n    uint8
	tok  [maxWordLen]byte
}

// NewPipeline returns the full pipeline of Figure 3 with every stage
// enabled.
func NewPipeline() *Pipeline {
	return &Pipeline{StripMarkup: true, RemoveStopWords: true, StemTerms: true}
}

// Instrument registers the token cache's hit and miss counters with reg.
// Call it before the pipeline is shared across goroutines.
func (p *Pipeline) Instrument(reg *metrics.Registry) {
	p.hits = reg.Counter("mm_text_term_cache_hits_total",
		"Word tokens of published pages whose stop-list and stemming outcome was found in the pipeline's fixed-size token cache.")
	p.misses = reg.Counter("mm_text_term_cache_misses_total",
		"Word tokens of published pages that had to be stop-listed and stemmed afresh (and refilled their cache slot).")
}

// Terms runs the pipeline over one page and returns its terms in document
// order (duplicates preserved; term frequencies are counted downstream by
// the vector-space layer).
//
// It is Tokenize → IsWord → IsStopWord → Stem in one pass over the bytes,
// term for term (the differential tests hold it to that): each token is
// lower-cased into a stack buffer and resolved through the token cache, so
// a token seen before costs no allocation, and equal terms — across pages,
// and across the profiles that hold them — are one string.
func (p *Pipeline) Terms(page string) []string {
	body := page
	if p.StripMarkup {
		body = StripHTML(page)
	}
	terms := make([]string, 0, len(body)/8)
	var c cacheCounts
	// A token past maxWordLen bytes is a non-word whatever follows, so the
	// buffer never needs more than one rune beyond it.
	var buf [maxWordLen + utf8.UTFMax]byte
	n := 0
	for _, r := range body {
		switch {
		case unicode.IsLetter(r):
			if n <= maxWordLen {
				n += utf8.EncodeRune(buf[n:], unicode.ToLower(r))
			}
		case r == '\'':
			// skip: joins the surrounding letters
		default:
			if term := p.term(buf[:n], &c); term != "" {
				terms = append(terms, term)
			}
			n = 0
		}
	}
	if term := p.term(buf[:n], &c); term != "" {
		terms = append(terms, term)
	}
	p.hits.Add(c.hits)
	p.misses.Add(c.misses)
	return terms
}

// cacheCounts tallies one Terms call's cache traffic, added to the
// counters once per page.
type cacheCounts struct{ hits, misses int64 }

// term returns the term a token yields, or "" when the non-word filter or
// the stop list drops it.
func (p *Pipeline) term(tok []byte, c *cacheCounts) string {
	if len(tok) < 2 || len(tok) > maxWordLen {
		return ""
	}
	slot := &p.cache[intern.Hash(tok)&(termCacheSlots-1)]
	e := slot.Load()
	if e != nil && string(e.tok[:e.n]) == string(tok) {
		c.hits++
		return e.term
	}
	c.misses++
	e = p.resolve(tok)
	slot.Store(e)
	return e.term
}

// resolve computes a word token's outcome. The term's string is the term
// table's when some profile already holds that term, and allocated here —
// once per cache fill, never added to the table — when none does: pages
// can mention any number of distinct words, and only profiles may grow the
// table.
func (p *Pipeline) resolve(tok []byte) *cachedToken {
	e := &cachedToken{n: uint8(len(tok))}
	copy(e.tok[:], tok)
	if p.RemoveStopWords && stopWords[string(tok)] {
		return e
	}
	term := tok
	if p.StemTerms && len(tok) >= 3 {
		var b [maxWordLen + 1]byte
		term = stemBytes(b[:copy(b[:], tok)])
	}
	if s, ok := intern.Terms.LookupBytes(term); ok {
		e.term = s
	} else {
		e.term = string(term)
	}
	return e
}
