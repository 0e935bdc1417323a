package main

import (
	"fmt"
	"math"

	"mmprofile/internal/core"
	"mmprofile/internal/filter"
	"mmprofile/internal/vsm"
)

// borderline is how close to θ a reference score may be before the harness
// stops insisting on which side the server put it: the reference sums a dot
// product in its own order, so the last bits can differ.
const borderline = 1e-9

// model is the harness's reference: its own copy of every profile, its own
// collection statistics, and a brute-force scorer. It replays the requests
// the server acknowledged, in the order the request log fixes, through the
// public functions of text, vsm and core — never through index, pubsub,
// store or wire — and so predicts what the server must have delivered and
// what each profile must have become.
type model struct {
	in       *inputs
	profiles []*core.Profile

	// Scoped to one server process: statistics and document ids restart
	// with the server, profiles do not.
	stats *vsm.Stats
	vecs  map[int64]vsm.Vector

	// The brute-force scorer keeps every profile vector flattened to
	// (term id, weight) runs; a profile is re-flattened when feedback
	// changed it.
	dict  map[string]int32
	flat  []flatProfile
	dirty []bool
	dense []float64

	// judged marks the users that gave feedback to the current server:
	// under a resident cap a restored profile is indexed only once its own
	// feedback has hydrated it.
	judged []bool
}

type flatProfile struct {
	ends []int32 // end offset of each vector in ids/ws
	ids  []int32
	ws   []float64
}

// hooks let the ladder time the layers while the model replays. Any may be
// nil.
type hooks struct {
	// vectorise replaces the model's own (untimed) vectorisation of a page.
	// The first argument is always the request's index in the replayed log.
	vectorise func(i int, html string, stats *vsm.Stats) vsm.Vector
	// published is called with every document vector the model computed.
	published func(i int, vec vsm.Vector)
	// observe replaces the model's own Observe call.
	observe func(i int, p *core.Profile, vec vsm.Vector, fd filter.Feedback)
	// observed is called after a profile took a judgment.
	observed func(i int, p *core.Profile)
}

// newModel starts the reference from the generated population.
func newModel(in *inputs) *model { return newModelFrom(in, initialStates(in)) }

// initialStates is every user's serialized profile as it is loaded into a
// server: the trained state, or what a keyword subscription amounts to — one
// relevant judgment of the uniform-weight keyword vector.
func initialStates(in *inputs) [][]byte {
	states := make([][]byte, len(in.users))
	for i := range in.users {
		u := &in.users[i]
		if u.state != nil {
			states[i] = u.state
			continue
		}
		p := core.NewDefault()
		p.Observe(keywordSeed(in, u), filter.Relevant)
		state, err := p.MarshalBinary()
		if err != nil {
			panic(err) // MM profiles always serialise
		}
		states[i] = state
	}
	return states
}

// newModelFrom starts the reference from serialized profiles.
func newModelFrom(in *inputs, states [][]byte) *model {
	m := &model{in: in, dict: map[string]int32{}}
	m.profiles = make([]*core.Profile, len(in.users))
	m.flat = make([]flatProfile, len(in.users))
	m.dirty = make([]bool, len(in.users))
	for i := range in.users {
		p := core.NewDefault()
		if err := p.UnmarshalBinary(states[i]); err != nil {
			panic(err) // the harness serialised it a moment ago
		}
		m.profiles[i] = p
		m.dirty[i] = true
	}
	m.newServer()
	return m
}

// states serializes every profile as it stands.
func (m *model) states() [][]byte {
	out := make([][]byte, len(m.profiles))
	for i, p := range m.profiles {
		state, err := p.MarshalBinary()
		if err != nil {
			panic(err) // MM profiles always serialise
		}
		out[i] = state
	}
	return out
}

// keywordSeed is the vector a keyword subscription seeds its profile with:
// uniform weight over the stemmed keywords — here the one stem of the
// user's topic, as the text pipeline produces it.
func keywordSeed(in *inputs, u *user) vsm.Vector {
	return vsm.FromMap(map[string]float64{in.pages[u.interests[0]].terms[0]: 1}).Normalized()
}

// newServer forgets what a server process forgets when it is replaced.
func (m *model) newServer() {
	m.stats = vsm.NewStats()
	m.vecs = map[int64]vsm.Vector{}
	m.judged = make([]bool, len(m.profiles))
}

func (m *model) termID(t string) int32 {
	id, ok := m.dict[t]
	if !ok {
		id = int32(len(m.dict))
		m.dict[t] = id
	}
	return id
}

func (m *model) flatten(ui int) {
	f := &m.flat[ui]
	f.ends, f.ids, f.ws = f.ends[:0], f.ids[:0], f.ws[:0]
	for _, v := range m.profiles[ui].ProfileVectors() {
		for i, t := range v.Terms {
			f.ids = append(f.ids, m.termID(t))
			f.ws = append(f.ws, v.Weights[i])
		}
		f.ends = append(f.ends, int32(len(f.ids)))
	}
	m.dirty[ui] = false
}

// expected scores vec against every profile by brute force: sure[i] is set
// when user i's best vector clears θ by more than the borderline, maybe[i]
// when it is within the borderline of θ.
func (m *model) expected(vec vsm.Vector) (sure, maybe []bool) {
	for ui := range m.profiles {
		if m.dirty[ui] {
			m.flatten(ui)
		}
	}
	if len(m.dense) < len(m.dict) {
		m.dense = make([]float64, len(m.dict)+1024)
	}
	var touched []int32
	for i, t := range vec.Terms {
		if id, ok := m.dict[t]; ok {
			m.dense[id] = vec.Weights[i]
			touched = append(touched, id)
		}
	}
	sure = make([]bool, len(m.profiles))
	maybe = make([]bool, len(m.profiles))
	for ui := range m.flat {
		f := &m.flat[ui]
		best, start := math.Inf(-1), int32(0)
		for _, end := range f.ends {
			dot := 0.0
			for k := start; k < end; k++ {
				dot += f.ws[k] * m.dense[f.ids[k]]
			}
			if dot > best {
				best = dot
			}
			start = end
		}
		switch {
		case best >= theta+borderline:
			sure[ui] = true
		case best > theta-borderline:
			maybe[ui] = true
		}
	}
	for _, id := range touched {
		m.dense[id] = 0
	}
	return sure, maybe
}

// replay applies one server's acknowledged requests to the reference, in
// log order. Every checked publish is compared with the brute-force
// prediction: the delivery count the server acknowledged, and which probe
// sessions received the document. report is called per mismatch; with a
// nil report the replay only advances the reference's state.
func (m *model) replay(log []opRec, sessions []*sessionState, report func(string, ...any)) error {
	var got map[int64]map[int]bool // document → probes that received it
	if report != nil {
		got = map[int64]map[int]bool{}
		for _, st := range sessions {
			for _, rv := range st.recv {
				if got[rv.doc] == nil {
					got[rv.doc] = map[int]bool{}
				}
				got[rv.doc][st.user] = true
			}
		}
	}
	for i := range log {
		if err := m.step(i, &log[i], got, report, &hooks{}); err != nil {
			return err
		}
	}
	return nil
}

// step applies request i of a log to the reference.
func (m *model) step(i int, rec *opRec, got map[int64]map[int]bool, report func(string, ...any), h *hooks) error {
	if !rec.ok {
		return nil
	}
	judged := m.in.spec.FeedbackPerPublish > 0 // a judgment may name any published vector
	switch rec.kind {
	case opPublish:
		pg := &m.in.pages[rec.page]
		var vec vsm.Vector
		switch {
		case h.vectorise != nil:
			vec = h.vectorise(i, pg.html, m.stats)
		case judged || h.published != nil || (rec.checked && report != nil):
			m.stats.Add(pg.terms)
			vec = vsm.DocumentVector(pg.terms, vsm.Bel{Stats: m.stats})
		default:
			m.stats.Add(pg.terms)
		}
		if judged {
			m.vecs[rec.doc] = vec
		}
		if h.published != nil {
			h.published(i, vec)
		}
		if rec.checked && report != nil {
			m.check(rec, vec, got[rec.doc], report)
		}
	case opFeedback:
		vec, ok := m.vecs[rec.doc]
		if !ok {
			return fmt.Errorf("perf: reference has no vector for judged document %d", rec.doc)
		}
		fd := filter.NotRelevant
		if rec.relevant {
			fd = filter.Relevant
		}
		p := m.profiles[rec.user]
		if h.observe != nil {
			h.observe(i, p, vec, fd)
		} else {
			p.Observe(vec, fd)
		}
		m.dirty[rec.user], m.judged[rec.user] = true, true
		if h.observed != nil {
			h.observed(i, p)
		}
	}
	return nil
}

// check compares one checked publish with the reference.
func (m *model) check(rec *opRec, vec vsm.Vector, received map[int]bool, report func(string, ...any)) {
	sp := m.in.spec
	if sp.Topics > 0 {
		// The fanout reference is topic membership.
		topic := m.in.pages[rec.page].cat
		want := 0
		for ui, u := range m.in.users {
			if u.interests[0] != topic {
				if received[ui] {
					report("doc %d (topic %d) reached %s of topic %d", rec.doc, topic, u.name, u.interests[0])
				}
				continue
			}
			want++
			if !received[ui] {
				report("doc %d (topic %d) never reached %s", rec.doc, topic, u.name)
			}
		}
		if int(rec.delivered) != want {
			report("doc %d: server delivered to %d, topic %d has %d subscribers", rec.doc, rec.delivered, topic, want)
		}
		return
	}
	sure, maybe := m.expected(vec)
	nSure, nMaybe := 0, 0
	for ui := range sure {
		if sure[ui] {
			nSure++
		}
		if maybe[ui] {
			nMaybe++
		}
	}
	lo, hi := nSure, nSure+nMaybe
	capped := sp.resident() > 0
	if capped {
		// Evicted profiles are not indexed, and which are evicted is the
		// server's business: only the upper bound and the probes (kept
		// resident by their own feedback, once they have given any) can
		// be checked.
		lo = 0
		for _, ui := range m.in.probes {
			if sure[ui] && m.judged[ui] {
				lo++
			}
		}
	}
	if int(rec.delivered) < lo || int(rec.delivered) > hi {
		report("doc %d: server delivered to %d, brute force over the reference profiles says %d..%d", rec.doc, rec.delivered, lo, hi)
	}
	for _, ui := range m.in.probes {
		switch {
		case capped && !m.judged[ui]:
		case sure[ui] && !received[ui]:
			report("doc %d scores over θ for probe %s but its session never received it", rec.doc, m.in.users[ui].name)
		case !sure[ui] && !maybe[ui] && received[ui]:
			report("doc %d scores under θ for probe %s but its session received it", rec.doc, m.in.users[ui].name)
		}
	}
}
