package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// theta is mmserver's default -threshold. The harness never passes the
// flag, so if the default moves the brute-force output check fails and says
// so — which is the point of keeping a copy here.
const theta = 0.25

// spec fixes one workload's shape. The sizes are frozen: BENCHMARK.json and
// README.md quote them, and a later change that wants other sizes is a
// change to the benchmark, measured again from scratch.
type spec struct {
	Name string
	Why  string

	Users  int // subscribers loaded before the first measured request, probes included
	Probes int // of those, how many hold a push session (fanout: all of them)
	Topics int // fanout only: single-stem topics the users spread over evenly

	// InterestCats and TrainDocs shape a trained MM profile: how many
	// second-level categories a user follows and how many relevant pages
	// of each it was trained on. Probes instead follow whole top-level
	// categories (ProbeTops of them) so that they see enough deliveries
	// for a median.
	InterestCats int
	TrainDocs    int
	ProbeTops    int

	FeedbackPerPublish int  // 0: every op is a publish; 4: the 1:4 mix
	State              bool // -state DIR -fsync
	Restart            bool // measured server boots on a prepared, crashed state dir
	ResidentShare      float64
	TailOps            int // restart: ops journaled after the last checkpoint, before the kill
}

var specs = []spec{
	{
		Name:  "match",
		Why:   "many trained profiles, full HTML pages, few deliveries: vectorise and index.Match dominate, so pruning and vector-size changes show here",
		Users: 4000, Probes: 16, InterestCats: 2, TrainDocs: 6, ProbeTops: 3,
	},
	{
		Name:  "fanout",
		Why:   "2048 push sessions in 32 one-stem topics, 4-token documents, 64 deliveries each: fan-out and session encode/write dominate and matching is nil, so match-side gains must not show here",
		Users: 2048, Probes: 2048, Topics: 32,
	},
	{
		Name:  "adapt",
		Why:   "1 publish : 4 durable feedbacks on trained profiles with -state -fsync: Observe, reindex, WAL append and commit wait run beside matching, so a match gain paid for by slower writes shows here",
		Users: 2000, Probes: 16, InterestCats: 2, TrainDocs: 6, ProbeTops: 3,
		FeedbackPerPublish: 4, State: true,
	},
	{
		Name:  "restart",
		Why:   "boot on a crashed state dir larger than the resident cap (10%), then the 1:4 mix over uniform users: recovery, RestoreUser and eviction do most of the work; nothing in match or fanout should move",
		Users: 4000, Probes: 16, InterestCats: 1, TrainDocs: 6, ProbeTops: 3,
		FeedbackPerPublish: 4, State: true, Restart: true, ResidentShare: 0.10, TailOps: 400,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// resident is the -max-resident-profiles value for the workload (0: unset).
func (s spec) resident() int {
	if s.ResidentShare <= 0 {
		return 0
	}
	return int(float64(s.Users) * s.ResidentShare)
}

// page is one publishable document. cat is its second-level category
// (top*10+sub) — or its topic on fanout — which the feedback oracle and the
// fanout reference use; terms is the harness's own run of the text pipeline
// over it, for the reference model.
type page struct {
	html  string
	cat   int
	terms []string
}

// user is one subscriber as the harness loads it: a trained MM profile to
// Import, or (fanout) a keyword list to Subscribe with.
type user struct {
	name      string
	interests []int  // categories the oracle calls relevant; fanout: the one topic
	state     []byte // MarshalBinary of the trained profile
	keywords  []string
	probe     bool
}

type opKind uint8

const (
	opPublish opKind = iota
	opFeedback
)

// streamOp is one generated request. A feedback names its user and whether
// the oracle's verdict should be "relevant"; which recent document of a
// fitting category it judges is resolved at run time from pick, because
// document ids are assigned by the server.
type streamOp struct {
	kind     opKind
	page     int32
	user     int32
	pick     uint32
	relevant bool
}

// streamLen is how many ops each driver's stream holds before it cycles:
// long enough that a run never sees the same burst boundary twice in a
// slice, short enough to generate in milliseconds.
const streamLen = 4000

// inputs is everything a run sends to the server, made from the seed alone.
type inputs struct {
	spec    spec
	seed    int64
	drivers int
	ncat    int
	pages   []page
	byCat   [][]int // category → pages
	users   []user
	probes  []int // indexes into users
	streams [][]streamOp
}

// generate builds a workload's inputs. drivers is the number of
// request-issuing connections; users are partitioned between them (user i
// belongs to driver i%drivers) so that one user's feedback order is the
// order of a single connection.
func generate(sp spec, seed int64, drivers int) *inputs {
	in := &inputs{spec: sp, seed: seed, drivers: drivers}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(sp.Name))))
	if sp.Topics > 0 {
		in.fanoutPopulation()
	} else {
		in.trainedPopulation(rng)
	}
	for i, u := range in.users {
		if u.probe {
			in.probes = append(in.probes, i)
		}
	}
	in.streams = make([][]streamOp, drivers)
	for d := range in.streams {
		in.streams[d] = in.stream(rand.New(rand.NewSource(seed*104729+int64(d)*31+1)), d)
	}
	return in
}

// trainedPopulation generates the page collection and trains one MM profile
// per user on relevant pages of the categories it follows, the way a feed
// reader's click history would have.
func (in *inputs) trainedPopulation(rng *rand.Rand) {
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 10
	cfg.Seed = in.seed
	coll := corpus.Generate(cfg)
	in.ncat = cfg.TopCategories * cfg.SubPerTop
	in.byCat = make([][]int, in.ncat)
	pipe := text.NewPipeline()
	stats := vsm.NewStats()
	for i, p := range coll.Pages {
		cat := p.Cat.Top*cfg.SubPerTop + p.Cat.Sub
		terms := pipe.Terms(p.HTML)
		stats.Add(terms)
		in.pages = append(in.pages, page{html: p.HTML, cat: cat, terms: terms})
		in.byCat[cat] = append(in.byCat[cat], i)
	}
	// Training vectors are weighted against the whole collection, the
	// paper's offline protocol; the server weights published pages against
	// the statistics as they stand, as a live system must.
	vecs := make([]vsm.Vector, len(in.pages))
	for i, p := range in.pages {
		vecs[i] = vsm.DocumentVector(p.terms, vsm.Bel{Stats: stats})
	}
	train := func(cats []int, perCat int) []byte {
		p := core.NewDefault()
		for _, c := range cats {
			for n := 0; n < perCat; n++ {
				p.Observe(vecs[in.byCat[c][rng.Intn(len(in.byCat[c]))]], filter.Relevant)
			}
		}
		state, err := p.MarshalBinary()
		if err != nil {
			panic(err) // MM profiles always serialise
		}
		return state
	}
	sp := in.spec
	for i := 0; i < sp.Users; i++ {
		var u user
		if i < sp.Probes {
			u.name = fmt.Sprintf("p%02d", i)
			u.probe = true
			for t := 0; t < sp.ProbeTops; t++ {
				top := (i + t*3) % cfg.TopCategories
				for s := 0; s < cfg.SubPerTop; s++ {
					u.interests = append(u.interests, top*cfg.SubPerTop+s)
				}
			}
			u.state = train(u.interests, 4)
		} else {
			u.name = fmt.Sprintf("u%05d", i)
			// Interests are dealt round-robin with a seeded offset, so every
			// seed loads the categories evenly and only which pages a user
			// saw differs.
			for k := 0; k < sp.InterestCats; k++ {
				u.interests = append(u.interests, (i*7+k*37+int(in.seed%97))%in.ncat)
			}
			u.state = train(u.interests, sp.TrainDocs)
		}
		in.users = append(in.users, u)
	}
}

// fanoutPopulation builds the single-stem topics: a topic's document is its
// token four times, its subscribers' keyword is the same token, so a
// document matches exactly its topic's subscribers with cosine 1. Tokens
// whose stem collides with an earlier topic's are skipped.
func (in *inputs) fanoutPopulation() {
	sp := in.spec
	pipe := text.NewPipeline()
	seen := map[string]bool{}
	var tokens []int
	// The seed picks where in the token sequence the topics start.
	for i := int(in.seed % 1000); len(in.pages) < sp.Topics; i++ {
		tok := topicToken(i)
		doc := tok + " " + tok + " " + tok + " " + tok
		terms := pipe.Terms(doc)
		if len(terms) != 4 || seen[terms[0]] {
			continue
		}
		seen[terms[0]] = true
		tokens = append(tokens, i)
		in.pages = append(in.pages, page{html: doc, cat: len(in.pages), terms: terms})
	}
	in.ncat = sp.Topics
	in.byCat = make([][]int, sp.Topics)
	for t := range in.byCat {
		in.byCat[t] = []int{t}
	}
	for i := 0; i < sp.Users; i++ {
		t := i % sp.Topics
		in.users = append(in.users, user{
			name:      fmt.Sprintf("s%05d", i),
			interests: []int{t},
			keywords:  []string{topicToken(tokens[t])},
			probe:     true,
		})
	}
}

// topicToken derives a letters-only token for topic i, so neither the
// tokenizer nor the stop list can split or drop it.
func topicToken(i int) string {
	b := []byte("topic")
	for {
		b = append(b, byte('a'+i%26))
		i /= 26
		if i == 0 {
			return string(b)
		}
	}
}

// stream generates driver d's requests. Publishes come in bursts of one to
// six pages of a category (a story developing), as a feed's traffic does;
// with FeedbackPerPublish > 0 every publish is followed by that many
// judgments from uniformly drawn users of the driver's partition, one in
// five of them negative, and every eighth judgment is a probe's own (which
// is what keeps probes resident under the restart workload's cap).
func (in *inputs) stream(rng *rand.Rand, d int) []streamOp {
	sp := in.spec
	var mine, myProbes []int32
	for i, u := range in.users {
		if i%in.drivers != d {
			continue
		}
		if u.probe {
			myProbes = append(myProbes, int32(i))
		} else {
			mine = append(mine, int32(i))
		}
	}
	ops := make([]streamOp, 0, streamLen+sp.FeedbackPerPublish)
	burstCat, burstLeft, fb := 0, 0, 0
	for len(ops) < streamLen {
		if burstLeft == 0 {
			burstCat = rng.Intn(in.ncat)
			burstLeft = 1 + rng.Intn(6)
		}
		burstLeft--
		pages := in.byCat[burstCat]
		ops = append(ops, streamOp{kind: opPublish, page: int32(pages[rng.Intn(len(pages))])})
		for k := 0; k < sp.FeedbackPerPublish; k++ {
			fb++
			op := streamOp{kind: opFeedback, pick: rng.Uint32(), relevant: rng.Intn(5) != 0}
			if fb%8 == 0 && len(myProbes) > 0 {
				op.user = myProbes[(fb/8)%len(myProbes)]
			} else {
				op.user = mine[rng.Intn(len(mine))]
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// hash fingerprints the inputs: same seed, same hash.
func (in *inputs) hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	h.Write([]byte(in.spec.Name))
	put(uint64(in.seed))
	for _, p := range in.pages {
		put(uint64(len(p.html)))
		h.Write([]byte(p.html))
		put(uint64(p.cat))
	}
	for _, u := range in.users {
		h.Write([]byte(u.name))
		put(uint64(len(u.state)))
		h.Write(u.state)
		for _, k := range u.keywords {
			h.Write([]byte(k))
		}
	}
	for _, s := range in.streams {
		for _, op := range s {
			put(uint64(op.kind))
			put(uint64(uint32(op.page)))
			put(uint64(uint32(op.user)))
			put(uint64(op.pick))
			if op.relevant {
				put(1)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
