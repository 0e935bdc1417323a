package docstore

import (
	"runtime"
	"testing"

	"mmprofile/internal/corpus"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

// TestRetainedDocumentBytes is the memory budget of the retention ring: what
// a full window of corpus pages costs in live heap, per document. The
// profiles of the benchmark's match population are trained on these pages'
// vectors, so their terms are interned first, as those profiles would have
// them; the 4 096 retained pages are then weighted against the statistics
// as they grow, as a live server weights what it is sent, and the few top
// terms no training vector held are the misses. A document of ~96 terms is
// its ids (4 B a term) and its float64 weights (8 B), 1.25 KB with
// size-class slack; held as a Vector, a string header and a weight a term,
// it was 2.56 KB.
func TestRetainedDocumentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is counted as heap")
	}
	cfg := corpus.DefaultConfig()
	cfg.PagesPerSub = 10
	pages := corpus.Generate(cfg).Pages
	pipe, stats := text.NewPipeline(), vsm.NewStats()
	terms := make([][]string, len(pages))
	for i, pg := range pages {
		terms[i] = pipe.Terms(pg.HTML)
		stats.Add(terms[i])
	}
	profiles := make([]vsm.Packed, len(terms))
	for i, ts := range terms {
		profiles[i] = vsm.Pack(vsm.DocumentVector(ts, vsm.Bel{Stats: stats}))
	}
	const retention = 4096
	s := New(retention)
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	held := 0
	for i := 0; i < retention; i++ {
		ts := terms[i%len(terms)]
		stats.Add(ts)
		doc := vsm.Retain(vsm.DocumentVector(ts, vsm.Bel{Stats: stats}))
		held += doc.Len()
		s.Put(doc, "")
	}
	perDoc := float64(liveHeap()-before) / retention
	t.Logf("%.1f terms a document, %.0f live bytes a retained document", float64(held)/retention, perDoc)
	if perDoc > 1300 {
		t.Errorf("a retained document costs %.0f live bytes, budget 1300", perDoc)
	}
	// What was live before the window filled stays live through the second
	// reading, or its freeing would count against the documents.
	runtime.KeepAlive(s)
	runtime.KeepAlive(profiles)
	runtime.KeepAlive(terms)
	runtime.KeepAlive(stats)
}
