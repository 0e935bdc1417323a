package text

// Stem reduces an English word to its stem using Porter's algorithm
// (M. F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980).
// The input must be a lower-cased word; words shorter than three letters
// are returned unchanged, as in the original definition.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	return string(stemBytes([]byte(word)))
}

// stemBytes runs the algorithm on a word of at least three bytes, in place,
// and returns the stem (b, shortened, or grown by one restored 'e').
func stemBytes(b []byte) []byte {
	s := stemmer{b: b}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return s.b
}

// stemmer holds the word being stemmed. b is mutated in place; j marks the
// end of the stem during condition evaluation (Porter's convention).
type stemmer struct {
	b []byte
	j int
}

// isConsonant reports whether b[i] is a consonant in Porter's sense:
// a letter other than a/e/i/o/u, with 'y' consonant only when it follows a
// vowel position (i.e. TOY has consonant y, SYZYGY has vowel y's).
func (s *stemmer) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[0:j+1], where the
// word form is C?(VC){m}V?.
func (s *stemmer) measure() int {
	n := 0
	i := 0
	for {
		if i > s.j {
			return n
		}
		if !s.isConsonant(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.isConsonant(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.isConsonant(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether b[0:j+1] contains a vowel.
func (s *stemmer) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// doubleConsonant reports whether b[i-1:i+1] is a double consonant.
func (s *stemmer) doubleConsonant(i int) bool {
	if i < 1 {
		return false
	}
	if s.b[i] != s.b[i-1] {
		return false
	}
	return s.isConsonant(i)
}

// cvc reports whether b[i-2:i+1] is consonant-vowel-consonant with the
// second consonant not w, x or y. Used to restore a final e (cav(e),
// lov(e), hop(e)).
func (s *stemmer) cvc(i int) bool {
	if i < 2 || !s.isConsonant(i) || s.isConsonant(i-1) || !s.isConsonant(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends checks whether the word ends with suffix and, if so, sets j to mark
// the stem preceding it.
func (s *stemmer) ends(suffix string) bool {
	n := len(s.b)
	l := len(suffix)
	if l > n {
		return false
	}
	if string(s.b[n-l:]) != suffix {
		return false
	}
	s.j = n - l - 1
	return true
}

// setTo replaces the suffix found by ends with rep.
func (s *stemmer) setTo(rep string) {
	s.b = append(s.b[:s.j+1], rep...)
}

// replace performs setTo only when the measure of the stem is positive.
func (s *stemmer) replace(rep string) {
	if s.measure() > 0 {
		s.setTo(rep)
	}
}

// step1a handles plurals: sses→ss, ies→i, ss→ss, s→"".
func (s *stemmer) step1a() {
	if s.b[len(s.b)-1] != 's' {
		return
	}
	switch {
	case s.ends("sses"):
		s.setTo("ss")
	case s.ends("ies"):
		s.setTo("i")
	case s.ends("ss"):
		// unchanged
	case s.ends("s"):
		s.setTo("")
	}
}

// step1b handles -eed, -ed, -ing: feed→feed, agreed→agree, plastered→
// plaster, motoring→motor with the at/bl/iz / double-consonant / cvc
// cleanup rules.
func (s *stemmer) step1b() {
	if s.ends("eed") {
		if s.measure() > 0 {
			s.b = s.b[:len(s.b)-1]
		}
		return
	}
	stripped := false
	if s.ends("ed") {
		if s.vowelInStem() {
			s.b = s.b[:s.j+1]
			stripped = true
		}
	} else if s.ends("ing") {
		if s.vowelInStem() {
			s.b = s.b[:s.j+1]
			stripped = true
		}
	}
	if !stripped {
		return
	}
	switch {
	case s.ends("at"):
		s.setTo("ate")
	case s.ends("bl"):
		s.setTo("ble")
	case s.ends("iz"):
		s.setTo("ize")
	case s.doubleConsonant(len(s.b) - 1):
		switch s.b[len(s.b)-1] {
		case 'l', 's', 'z':
			// keep the double consonant (fall, hiss, fizz)
		default:
			s.b = s.b[:len(s.b)-1]
		}
	default:
		s.j = len(s.b) - 1
		if s.measure() == 1 && s.cvc(len(s.b)-1) {
			s.b = append(s.b, 'e')
		}
	}
}

// step1c turns terminal y to i when there is a vowel in the stem
// (happy→happi, sky→sky).
func (s *stemmer) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[len(s.b)-1] = 'i'
	}
}

// pair is one suffix rewrite rule for steps 2–4.
type pair struct{ suffix, rep string }

var step2Rules = []pair{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
}

var step3Rules = []pair{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

// applyRules applies the first matching rule whose stem has m > 0.
func (s *stemmer) applyRules(rules []pair) {
	for _, r := range rules {
		if s.ends(r.suffix) {
			s.replace(r.rep)
			return
		}
	}
}

func (s *stemmer) step2() { s.applyRules(step2Rules) }
func (s *stemmer) step3() { s.applyRules(step3Rules) }

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

// step4 removes residual suffixes when the measure of the stem exceeds 1;
// -ion is removed only after s or t.
func (s *stemmer) step4() {
	for _, suf := range step4Suffixes {
		if !s.ends(suf) {
			continue
		}
		if suf == "ion" {
			if s.j < 0 || (s.b[s.j] != 's' && s.b[s.j] != 't') {
				continue
			}
		}
		if s.measure() > 1 {
			s.setTo("")
		}
		return
	}
}

// step5a removes a final e when m > 1, or when m == 1 and the stem does
// not end cvc (probate→probat, rate→rate).
func (s *stemmer) step5a() {
	if s.b[len(s.b)-1] != 'e' {
		return
	}
	s.j = len(s.b) - 2
	m := s.measure()
	if m > 1 || (m == 1 && !s.cvc(len(s.b)-2)) {
		s.b = s.b[:len(s.b)-1]
	}
}

// step5b reduces a final double l when m > 1 (controll→control).
func (s *stemmer) step5b() {
	n := len(s.b)
	if n < 2 || s.b[n-1] != 'l' || !s.doubleConsonant(n-1) {
		return
	}
	s.j = n - 1
	if s.measure() > 1 {
		s.b = s.b[:n-1]
	}
}
