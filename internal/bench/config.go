package bench

import (
	"sync"

	"mmprofile/internal/corpus"
	"mmprofile/internal/text"
)

// Config parameterizes the experiment harness. Zero value is unusable;
// start from DefaultConfig.
type Config struct {
	// Corpus is the collection configuration (paper: 900 pages, 10×10×9).
	Corpus corpus.Config
	// TrainDocs is the training-set size (paper: 500, rest is the test set).
	TrainDocs int
	// Runs is the number of randomly-seeded repetitions averaged per data
	// point (paper: at least 4).
	Runs int
	// Theta and Eta are MM's parameters for non-sweep experiments
	// (paper: 0.15 and 0.2).
	Theta float64
	Eta   float64
	// CurveEvery is the checkpoint interval for learning curves.
	CurveEvery int
	// ShiftStream is the stream length for the Section 5.5 experiments
	// (paper plots 600 documents) and ShiftAt the shift point (200).
	ShiftStream int
	ShiftAt     int
	// BaseSeed decorrelates repetitions; run r uses BaseSeed + r.
	BaseSeed int64
}

// DefaultConfig returns the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Corpus:      corpus.DefaultConfig(),
		TrainDocs:   500,
		Runs:        4,
		Theta:       0.15,
		Eta:         0.2,
		CurveEvery:  20,
		ShiftStream: 600,
		ShiftAt:     200,
		BaseSeed:    1,
	}
}

// QuickConfig returns a scaled-down setup (smaller collection, fewer runs)
// for tests and testing.B benchmarks, preserving the workload's shape:
// still two category levels, still a train/test split.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Corpus.TopCategories = 6
	cfg.Corpus.SubPerTop = 4
	cfg.Corpus.PagesPerSub = 6 // 144 pages
	cfg.Corpus.MinWords = 80
	cfg.Corpus.MaxWords = 200
	cfg.TrainDocs = 90
	cfg.Runs = 2
	cfg.CurveEvery = 25
	cfg.ShiftStream = 200
	cfg.ShiftAt = 80
	return cfg
}

// Harness caches the vectorized dataset, which is shared by every
// experiment for a given corpus configuration. Safe for concurrent use.
type Harness struct {
	Cfg Config

	once sync.Once
	ds   *corpus.Dataset
}

// NewHarness returns a harness for the configuration.
func NewHarness(cfg Config) *Harness { return &Harness{Cfg: cfg} }

// Dataset generates and vectorizes the collection on first use.
func (h *Harness) Dataset() *corpus.Dataset {
	h.once.Do(func() {
		h.ds = corpus.Generate(h.Cfg.Corpus).Vectorize(text.NewPipeline())
	})
	return h.ds
}
