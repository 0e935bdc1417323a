// Per-figure benchmark suite: one testing.B benchmark per reproduced table/
// figure (see DESIGN.md's experiment index), each regenerating its figure
// on the scaled-down QuickConfig collection and reporting the headline
// numbers as custom metrics, plus micro-benchmarks for the system's hot
// paths. Run the full paper-scale reproduction with cmd/mmbench.
package mmprofile_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"mmprofile/internal/bench"
	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/filter"
	"mmprofile/internal/index"
	"mmprofile/internal/pubsub"
	"mmprofile/internal/server"
	"mmprofile/internal/sim"
	"mmprofile/internal/store"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
	"mmprofile/internal/wire"
)

// harness is shared across benchmarks: the dataset build is not what any
// individual benchmark measures.
var harness = bench.NewHarness(bench.QuickConfig())

func reportSeries(b *testing.B, fig bench.Figure) {
	for _, s := range fig.Series {
		b.ReportMetric(s.Y[len(s.Y)-1], "final-"+s.Label)
	}
}

// BenchmarkFig04TopLevelEffectiveness regenerates Figure 4 (E1): niap of
// RI, RG(10), and MM over top-level interest workloads.
func BenchmarkFig04TopLevelEffectiveness(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig4()
	}
	reportSeries(b, fig)
}

// BenchmarkFig05SecondLevelEffectiveness regenerates Figure 5 (E2).
func BenchmarkFig05SecondLevelEffectiveness(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig5()
	}
	reportSeries(b, fig)
}

// BenchmarkFig06ThresholdPrecision and BenchmarkFig07ThresholdProfileSize
// regenerate the θ sweep (E3, E4).
func BenchmarkFig06ThresholdPrecision(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var prec bench.Figure
	for i := 0; i < b.N; i++ {
		prec, _ = harness.ThresholdFigures()
	}
	reportSeries(b, prec)
}

func BenchmarkFig07ThresholdProfileSize(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var size bench.Figure
	for i := 0; i < b.N; i++ {
		_, size = harness.ThresholdFigures()
	}
	reportSeries(b, size)
}

// BenchmarkFig08PartialShift .. BenchmarkFig11DeleteInterest regenerate the
// Section 5.5 adaptability curves (E5–E8).
func BenchmarkFig08PartialShift(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig8()
	}
	reportSeries(b, fig)
}

func BenchmarkFig09CompleteShift(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig9()
	}
	reportSeries(b, fig)
}

func BenchmarkFig10AddInterest(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig10()
	}
	reportSeries(b, fig)
}

func BenchmarkFig11DeleteInterest(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.Fig11()
	}
	reportSeries(b, fig)
}

// BenchmarkTextBatchRocchio regenerates the Section 5.2 in-text batch
// comparison (E9).
func BenchmarkTextBatchRocchio(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.BatchFigure()
	}
	reportSeries(b, fig)
}

// BenchmarkTextLearningRate regenerates the Section 5.1 in-text learning-
// rate observation (E10).
func BenchmarkTextLearningRate(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.LearningRateFigure()
	}
	reportSeries(b, fig)
}

// ---------------------------------------------------------------------------
// Ablations and extensions (see DESIGN.md §6 and EXPERIMENTS.md).

// BenchmarkAblationEtaSweep sweeps MM's adaptability η.
func BenchmarkAblationEtaSweep(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.EtaSweepFigure()
	}
	reportSeries(b, fig)
}

// BenchmarkAblationGroupSize sweeps Rocchio's group size (Allan's claim).
func BenchmarkAblationGroupSize(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.GroupSizeFigure()
	}
	reportSeries(b, fig)
}

// BenchmarkAblationMerge compares MM with and without the merge operation.
func BenchmarkAblationMerge(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var size bench.Figure
	for i := 0; i < b.N; i++ {
		_, size = harness.MergeAblationFigure()
	}
	reportSeries(b, size)
}

// BenchmarkAblationDecayVariant compares strength-decay instantiations.
func BenchmarkAblationDecayVariant(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.DecayVariantFigure()
	}
	reportSeries(b, fig)
}

// BenchmarkAblationNoise measures robustness to flipped judgments.
func BenchmarkAblationNoise(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.NoiseFigure()
	}
	reportSeries(b, fig)
}

// BenchmarkAblationBatchCluster compares single-pass MM clustering with
// offline spherical k-means at equal cluster budgets.
func BenchmarkAblationBatchCluster(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var prec bench.Figure
	for i := 0; i < b.N; i++ {
		prec, _ = harness.BatchClusterFigure()
	}
	reportSeries(b, prec)
}

// BenchmarkExtensionLSI compares keyword-space and LSI-space learners.
func BenchmarkExtensionLSI(b *testing.B) {
	harness.Dataset()
	b.ResetTimer()
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = harness.LSIFigure()
	}
	reportSeries(b, fig)
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the hot paths behind the figures.

// BenchmarkPipeline measures raw page → term-list throughput.
func BenchmarkPipeline(b *testing.B) {
	coll := corpus.Generate(harness.Cfg.Corpus)
	pipe := text.NewPipeline()
	var total int64
	for _, p := range coll.Pages {
		total += int64(len(p.HTML))
	}
	b.SetBytes(total / int64(len(coll.Pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipe.Terms(coll.Pages[i%len(coll.Pages)].HTML)
	}
}

// BenchmarkPorterStem measures the stemmer alone.
func BenchmarkPorterStem(b *testing.B) {
	words := []string{"relational", "computing", "adjustments", "profiles", "dissemination", "adaptively"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = text.Stem(words[i%len(words)])
	}
}

// BenchmarkCosine measures similarity between two 100-term vectors.
func BenchmarkCosine(b *testing.B) {
	ds := harness.Dataset()
	a, c := ds.Docs[0].Vec, ds.Docs[1].Vec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vsm.Cosine(a, c)
	}
}

// BenchmarkMMObserve measures one MM feedback step on a trained profile.
func BenchmarkMMObserve(b *testing.B) {
	ds := harness.Dataset()
	u := sim.NewUser(corpus.Category{Top: 0, Sub: -1}, corpus.Category{Top: 1, Sub: -1})
	mm := core.NewDefault()
	for _, d := range ds.Docs[:100] {
		mm.Observe(d.Vec, u.Feedback(d))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ds.Docs[i%len(ds.Docs)]
		mm.Observe(d.Vec, u.Feedback(d))
	}
}

// BenchmarkMMScore measures scoring one document against a trained
// multi-vector profile.
func BenchmarkMMScore(b *testing.B) {
	ds := harness.Dataset()
	u := sim.NewUser(corpus.Category{Top: 0, Sub: -1})
	mm := core.NewDefault()
	for _, d := range ds.Docs {
		mm.Observe(d.Vec, u.Feedback(d))
	}
	b.ReportMetric(float64(mm.ProfileSize()), "profile-vectors")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mm.Score(ds.Docs[i%len(ds.Docs)].Vec)
	}
}

// matchTier lazily builds the match-tier collection: 10k distinct pages
// (10×10×100), so the 1M-vector population below is ~100 copies of each
// page rather than the quick corpus's ~7000 — which would make ~0.7% of
// the index an exact duplicate of every probe and leave each posting list
// only 144 distinct weights, flattening the impact-ordered decay that
// block-max skipping feeds on. Only the 1M case pays the build.
var matchTier = bench.NewHarness(func() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Corpus.PagesPerSub = 100
	cfg.Corpus.MaxWords = 250
	cfg.TrainDocs = 90
	cfg.Runs = 2
	return cfg
}())

// BenchmarkIndexMatch measures matching one document against n indexed
// profile vectors via the inverted index — the paper's argument that
// "filtering cost is not linearly proportional to the number of vectors".
// The 10k and 100k sizes are the dissemination hot path at scale, probed
// at the broker's default θ = 0.25 on the quick corpus; the 1M size is the
// tier the threshold-aware pruning (DESIGN.md §12) targets, built from the
// match-tier collection (10k distinct pages — cycling 144 pages to a
// million vectors would make ~0.7% of the index an exact duplicate of
// every probe) and probed at the tier's θ = 0.5 after Optimize() commits
// the staged tails.
func BenchmarkIndexMatch(b *testing.B) {
	for _, n := range []int{1000, 10_000, 100_000, 1_000_000} {
		ds, theta := harness.Dataset(), 0.25
		if n == 1_000_000 {
			ds, theta = matchTier.Dataset(), 0.5
		}
		b.Run(fmt.Sprintf("vectors=%d", n), func(b *testing.B) {
			ix := index.New()
			users := n / 5
			for u := 0; u < users; u++ {
				vecs := make([]vsm.Vector, 5)
				for v := range vecs {
					vecs[v] = ds.Docs[(v*users+u)%len(ds.Docs)].Vec
				}
				ix.SetUser(fmt.Sprintf("user%05d", u), vecs)
			}
			ix.Optimize()
			// Building the 1M tier leaves a multi-GB heap behind; collect it
			// now so a GC cycle doesn't land inside the timed loop (on one
			// core a mark phase over that heap dwarfs a single match).
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ix.Match(ds.Docs[i%len(ds.Docs)].Vec, theta)
			}
		})
	}
}

// BenchmarkIndexVsBruteForce contrasts inverted-index matching with the
// naive every-profile scan at increasing subscriber counts, demonstrating
// the paper's §4.3 claim that "the filtering cost is not linearly
// proportional to the number of vectors since well-known indexing
// techniques are applicable".
func BenchmarkIndexVsBruteForce(b *testing.B) {
	ds := harness.Dataset()
	for _, users := range []int{100, 1000} {
		vecsPerUser := 5
		ix := index.New()
		var flat []vsm.Vector
		for u := 0; u < users; u++ {
			vecs := make([]vsm.Vector, vecsPerUser)
			for v := range vecs {
				vecs[v] = ds.Docs[(u*vecsPerUser+v)%len(ds.Docs)].Vec
			}
			ix.SetUser(fmt.Sprintf("user%04d", u), vecs)
			flat = append(flat, vecs...)
		}
		b.Run(fmt.Sprintf("index/users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ix.Match(ds.Docs[i%len(ds.Docs)].Vec, 0.25)
			}
		})
		b.Run(fmt.Sprintf("brute/users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc := ds.Docs[i%len(ds.Docs)].Vec
				hits := 0
				for _, pv := range flat {
					if vsm.Cosine(pv, doc) >= 0.25 {
						hits++
					}
				}
				_ = hits
			}
		})
	}
}

// brokerWithVectors builds a broker whose subscriber population carries
// roughly n indexed profile vectors (two seeded MM vectors per subscriber).
func brokerWithVectors(b *testing.B, n int) *pubsub.Broker {
	b.Helper()
	ds := harness.Dataset()
	broker := pubsub.New(pubsub.Options{Threshold: 0.25, QueueSize: 16})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n/2; i++ {
		u := sim.NewUser(sim.RandomTopInterests(rng, ds, 2)...)
		mm := core.NewDefault()
		// Two judged documents from distinct interests give ~2 vectors
		// without the cost of a full training stream per subscriber.
		seen := 0
		for _, d := range ds.Docs[rng.Intn(len(ds.Docs)):] {
			if u.Feedback(d) == filter.Relevant {
				mm.Observe(d.Vec, filter.Relevant)
				if seen++; seen == 2 {
					break
				}
			}
		}
		if _, err := broker.Subscribe(fmt.Sprintf("user%06d", i), mm); err != nil {
			b.Fatal(err)
		}
	}
	return broker
}

// BenchmarkBrokerPublish measures the full dissemination path: publish a
// pre-vectorized page to a broker whose population holds ~n indexed profile
// vectors.
func BenchmarkBrokerPublish(b *testing.B) {
	ds := harness.Dataset()
	for _, n := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("vectors=%d", n), func(b *testing.B) {
			broker := brokerWithVectors(b, n)
			b.ReportMetric(float64(broker.IndexStats().Vectors), "indexed-vectors")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				broker.PublishVector(ds.Docs[i%len(ds.Docs)].Vec)
			}
		})
	}
}

// BenchmarkBrokerPublishParallel measures publish throughput with many
// goroutines pushing simultaneously — the broker's fine-grained locking at
// work (compare ns/op with the sequential BenchmarkBrokerPublish).
func BenchmarkBrokerPublishParallel(b *testing.B) {
	ds := harness.Dataset()
	broker := pubsub.New(pubsub.Options{Threshold: 0.25, QueueSize: 16})
	for i := 0; i < 100; i++ {
		u := sim.NewUser(sim.RandomTopInterests(rand.New(rand.NewSource(int64(i))), ds, 1)...)
		mm := core.NewDefault()
		for _, d := range ds.Docs[:60] {
			mm.Observe(d.Vec, u.Feedback(d))
		}
		if _, err := broker.Subscribe(fmt.Sprintf("user%03d", i), mm); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			broker.PublishVector(ds.Docs[i%len(ds.Docs)].Vec)
			i++
		}
	})
}

// BenchmarkBrokerFeedback measures the feedback path including reindexing.
func BenchmarkBrokerFeedback(b *testing.B) {
	ds := harness.Dataset()
	broker := pubsub.New(pubsub.Options{Threshold: 0.25})
	sub, err := broker.Subscribe("alice", core.NewDefault())
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, len(ds.Docs))
	for i, d := range ds.Docs {
		ids[i], _ = broker.PublishVector(d.Vec)
	}
	u := sim.NewUser(corpus.Category{Top: 0, Sub: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Docs)
		if err := sub.Feedback(ids[j], u.Feedback(ds.Docs[j])); err != nil {
			b.Fatal(err)
		}
	}
}

// perfShapedProfile is an MM profile shaped like those perf/'s match
// workload imports: seven vectors, each one relevant page from a category
// of its own, of up to vsm.MaxDocumentTerms terms.
func perfShapedProfile(b *testing.B) *core.Profile {
	b.Helper()
	mm := core.NewDefault()
	seen := map[corpus.Category]bool{}
	for _, d := range harness.Dataset().Docs {
		if !seen[d.Cat] {
			seen[d.Cat] = true
			mm.Observe(d.Vec, filter.Relevant)
		}
		if mm.ProfileSize() == 7 {
			return mm
		}
	}
	b.Fatalf("the corpus grew a profile of %d vectors, not 7", mm.ProfileSize())
	return nil
}

// BenchmarkServerImport measures one Import of a perf-shaped profile over
// net.Pipe into the server mmserver runs: the request read off the
// connection, the profile decoded, subscribed and indexed, the reply read.
// It is the unit of perf/'s set-up, which imports each of its users once.
// Every import is of the same bytes, so after the first each vector is
// one the server holds: taken from the index by its digest, not decoded.
func BenchmarkServerImport(b *testing.B) {
	state, err := perfShapedProfile(b).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	benchImport(b, state, func(int) {})
}

// BenchmarkServerImportFresh is BenchmarkServerImport with every vector of
// every import new to the server: import i writes i into the low mantissa
// bits of each vector's first weight, so no vector is held, by digest or
// by content, and each is hashed, decoded and indexed: the import path's
// miss, the digest included.
func BenchmarkServerImportFresh(b *testing.B) {
	mm := perfShapedProfile(b)
	state, err := mm.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	// Where each vector's first weight sits in state: after the vector's
	// term count, its first term's length and the term.
	var weights []int
	for _, v := range mm.PackedVectors() {
		enc := vsm.AppendPacked(nil, v)
		_, k := binary.Uvarint(enc)
		l, kl := binary.Uvarint(enc[k:])
		weights = append(weights, bytes.Index(state, enc)+k+kl+int(l))
	}
	benchImport(b, state, func(i int) {
		for _, at := range weights {
			w := binary.LittleEndian.Uint64(state[at:])
			binary.LittleEndian.PutUint64(state[at:], w&^0xffffffff|uint64(uint32(i+1)))
		}
	})
}

// sentConn counts the bytes written through it.
type sentConn struct {
	net.Conn
	n *atomic.Int64
}

func (c sentConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// reportImportBytes reports the state's size and the bytes the client
// wrote per import: a request line and the state.
func reportImportBytes(b *testing.B, state []byte, sent *atomic.Int64) {
	b.ReportMetric(float64(len(state)), "state-bytes")
	b.ReportMetric(float64(sent.Load())/float64(b.N), "sent-bytes")
}

// benchImport imports state b.N times, under new names, into a server over
// net.Pipe, calling vary(i) before import i.
func benchImport(b *testing.B, state []byte, vary func(i int)) {
	srv, err := server.New(server.Config{Threshold: 0.25, Queue: 128, Retention: 4096}, server.Seams{Log: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	local, remote := net.Pipe()
	srv.ServeConn(remote)
	var sent atomic.Int64
	c := wire.NewClient(sentConn{local, &sent})
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vary(i)
		if err := c.Import(fmt.Sprintf("user%07d", i), "MM", state); err != nil {
			b.Fatal(err)
		}
	}
	reportImportBytes(b, state, &sent)
}

// BenchmarkServerBoot times server.New over a crashed state directory of
// perf's restart shape: 4 000 MM users of ~5.5 KB in a checkpointed
// segment and a 400-judgment tail in the WAL. eager replays every profile
// into the heap (-max-resident-profiles 0), lazy registers evicted stubs
// from the offset index (-max-resident-profiles 400). Each boot opens a
// fresh copy of the directory, made outside the timer, as is the shutdown
// checkpoint that ends it.
func BenchmarkServerBoot(b *testing.B) {
	crashed := crashedStateDir(b, 4000, 400)
	for _, c := range []struct {
		name        string
		maxResident int
	}{{"eager", 0}, {"lazy", 400}} {
		b.Run(c.name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "state")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyDir(b, crashed, dir)
				b.StartTimer()
				srv, err := server.New(server.Config{Threshold: 0.25, Queue: 128, Retention: 4096, StateDir: dir, MaxResident: c.maxResident},
					server.Seams{Log: io.Discard})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				srv.Stop()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// crashedStateDir writes a state directory holding users MM profiles of
// three 100-term vectors in a segment, then tail judgments of uniformly
// drawn users in a WAL that no checkpoint compacted.
func crashedStateDir(b *testing.B, users, tail int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	doc := func(prefix string) vsm.Vector {
		m := map[string]float64{}
		for i := 0; i < 100; i++ {
			m[fmt.Sprintf("%sterm%03d", prefix, i)] = 1 + float64(i%7)
		}
		return vsm.FromMap(m).Normalized()
	}
	p := core.NewDefault()
	for v := 0; v < 3; v++ {
		p.Observe(doc(fmt.Sprintf("v%d", v)), filter.Relevant)
	}
	state, err := p.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := st.AppendSubscribe(fmt.Sprintf("user-%05d", i), "MM", state); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(1); err != nil {
		b.Fatal(err)
	}
	rng, judged := rand.New(rand.NewSource(1)), doc("tail")
	for j := 0; j < tail; j++ {
		if err := st.AppendFeedback(fmt.Sprintf("user-%05d", rng.Intn(users)), judged, filter.Relevant); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// copyDir copies the files of directory from into a new directory to.
func copyDir(b *testing.B, from, to string) {
	b.Helper()
	entries, err := os.ReadDir(from)
	if err == nil {
		err = os.MkdirAll(to, 0o755)
	}
	for _, e := range entries {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(from, e.Name())); err == nil {
			err = os.WriteFile(filepath.Join(to, e.Name()), data, 0o644)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerImportDurable is BenchmarkServerImport into a server with
// -state and -fsync, from four net.Pipe connections at once: each import is
// acknowledged only once its subscribe record is fsynced, and imports that
// wait together share a group commit. It reports the fsyncs an import
// costs, the quantity behind perf/'s adapt set-up of 2 000 durable imports;
// ns/op is the wall time of one import.
func BenchmarkServerImportDurable(b *testing.B) {
	state, err := perfShapedProfile(b).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	var sent atomic.Int64
	clients, fsyncs := durableClients(b, &sent)
	before := fsyncs()
	b.ReportAllocs()
	b.ResetTimer()
	onClients(b, clients, func(_ int, c *wire.Client, i int) error {
		return c.Import(fmt.Sprintf("user%07d", i), "MM", state)
	})
	b.StopTimer()
	b.ReportMetric(float64(fsyncs()-before)/float64(b.N), "fsyncs/import")
	reportImportBytes(b, state, &sent)
}

// BenchmarkServerFeedbackDurable is BenchmarkServerImportDurable's server
// and four connections sending durable judgments: each connection judges
// retained pages for sixteen imported users of its own, relevant when the
// page is in the user's top-level category, and each judgment is
// acknowledged only once its feedback record is fsynced. It reports the
// fsyncs a judgment costs: the path of perf/'s adapt window.
func BenchmarkServerFeedbackDurable(b *testing.B) {
	state, err := perfShapedProfile(b).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	clients, fsyncs := durableClients(b, new(atomic.Int64))
	const usersPer = 16
	for k, c := range clients {
		for u := 0; u < usersPer; u++ {
			if err := c.Import(fmt.Sprintf("c%du%02d", k, u), "MM", state); err != nil {
				b.Fatal(err)
			}
		}
	}
	pages := corpus.Generate(harness.Cfg.Corpus).Pages
	docs := make([]int64, len(pages))
	for p, pg := range pages {
		if docs[p], _, err = clients[0].Publish(pg.HTML); err != nil {
			b.Fatal(err)
		}
	}
	tops := harness.Cfg.Corpus.TopCategories
	before := fsyncs()
	b.ReportAllocs()
	b.ResetTimer()
	onClients(b, clients, func(k int, c *wire.Client, i int) error {
		u, p := i%usersPer, i%len(pages)
		return c.Feedback(fmt.Sprintf("c%du%02d", k, u), docs[p], pages[p].Cat.Top == u%tops)
	})
	b.StopTimer()
	b.ReportMetric(float64(fsyncs()-before)/float64(b.N), "fsyncs/judgment")
}

// durableClients starts the server mmserver runs with -state and -fsync
// and connects four clients to it over net.Pipe, counting the bytes they
// write in sent. fsyncs reads the server's fsync count.
func durableClients(b *testing.B, sent *atomic.Int64) (clients []*wire.Client, fsyncs func() int64) {
	srv, err := server.New(server.Config{Threshold: 0.25, Queue: 128, Retention: 4096, StateDir: b.TempDir(), Fsync: true},
		server.Seams{Log: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Stop)
	clients = make([]*wire.Client, 4)
	for k := range clients {
		local, remote := net.Pipe()
		srv.ServeConn(remote)
		clients[k] = wire.NewClient(sentConn{local, sent})
		b.Cleanup(func() { clients[k].Close() })
	}
	fsyncs = func() int64 { n, _ := srv.Registry().Snapshot()["mm_store_fsyncs_total"].(int64); return n }
	return clients, fsyncs
}

// onClients runs op for every i in [0, b.N), each i on whichever client k
// asks for it next, all clients at once.
func onClients(b *testing.B, clients []*wire.Client, op func(k int, c *wire.Client, i int) error) {
	var next atomic.Int64
	errs := make(chan error, len(clients))
	for k, c := range clients {
		go func(k int, c *wire.Client) {
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				if err := op(k, c, int(i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(k, c)
	}
	for range clients {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexSetPackedFresh measures indexing a new user's perf-shaped
// profile — seven vectors of up to 100 terms, none of them indexed yet —
// into an index of 4 000 such users: the index's share of an Import. The
// user is removed again, untimed, so the index keeps its size.
func BenchmarkIndexSetPackedFresh(b *testing.B) {
	docs := harness.Dataset().Docs
	// The documents repeat across users, so each user's vectors get a first
	// weight of their own: equal content would join an entry, not make one.
	fresh := func(u int) []vsm.Packed {
		vecs := make([]vsm.Packed, 7)
		for v := range vecs {
			vecs[v] = vsm.Pack(docs[(u*7+v)%len(docs)].Vec)
			vecs[v].Weights[0] *= 1 + float64(u+1)/(1<<30)
		}
		return vecs
	}
	ix := index.New()
	for u := 0; u < 4000; u++ {
		ix.SetPacked(fmt.Sprintf("user%04d", u), fresh(u))
	}
	vecs := make([][]vsm.Packed, 64)
	for i := range vecs {
		vecs[i] = fresh(4000 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SetPacked("new", vecs[i%len(vecs)])
		b.StopTimer()
		ix.RemoveUser("new")
		b.StartTimer()
	}
}

// BenchmarkIndexMatchDuringWrites puts the index's readers and a writer on
// its one lock at once: RunParallel matchers on one index.Index of 2 000
// users while one goroutine loops SetPacked / RemoveUser over a rotating
// set of 64 users, each SetPacked of content the index does not hold. An
// op is one match; matches/op is what a match returns and writes/op the
// writes completed per match, so at -cpu 2 a writer that starves the
// matchers, or the reverse, shows in one of the two.
func BenchmarkIndexMatchDuringWrites(b *testing.B) {
	docs := harness.Dataset().Docs
	packed := func(u int) []vsm.Packed {
		vecs := make([]vsm.Packed, 5)
		for v := range vecs {
			vecs[v] = vsm.Pack(docs[(u*5+v)%len(docs)].Vec)
			vecs[v].Weights[0] *= 1 + float64(u+1)/(1<<30) // content of its own
		}
		return vecs
	}
	ix := index.New()
	for u := 0; u < 2000; u++ {
		ix.SetPacked(fmt.Sprintf("user%04d", u), packed(u))
	}
	const rotation = 64
	names, sets := make([]string, rotation), make([][]vsm.Packed, rotation)
	for u := range names {
		names[u], sets[u] = fmt.Sprintf("writer%02d", u), packed(2000+u)
	}
	retained := make([]vsm.Retained, len(docs))
	for i, d := range docs {
		retained[i] = vsm.Retain(d.Vec)
	}
	stop, done := make(chan struct{}), make(chan int)
	var matches atomic.Int64
	b.ResetTimer()
	go func() {
		writes := 0
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- writes
				return
			default:
			}
			u := i % rotation
			ix.SetPacked(names[u], sets[u])
			ix.RemoveUser(names[(u+rotation/2)%rotation])
			writes += 2
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		found := 0
		for i := 0; pb.Next(); i++ {
			found += len(ix.MatchDoc(retained[i%len(retained)], 0.25))
		}
		matches.Add(int64(found))
	})
	b.StopTimer()
	close(stop)
	writes := <-done
	b.ReportMetric(float64(matches.Load())/float64(b.N), "matches/op")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
