package index_test

import (
	"fmt"

	"mmprofile/internal/index"
	"mmprofile/internal/vsm"
)

// Example indexes two users' profile vectors and matches a document: only
// posting lists of the document's terms are touched, and each user gets
// her single best score.
func Example() {
	ix := index.New()
	unit := func(m map[string]float64) vsm.Vector { return vsm.FromMap(m).Normalized() }
	ix.SetUser("alice", []vsm.Vector{
		unit(map[string]float64{"cat": 1, "dog": 1}),
		unit(map[string]float64{"guitar": 1}),
	})
	ix.SetUser("bob", []vsm.Vector{unit(map[string]float64{"stock": 1, "bond": 1})})

	doc := unit(map[string]float64{"cat": 1, "toy": 0.3})
	for _, m := range ix.Match(doc, 0.2) {
		fmt.Printf("%s matched via vector %d (score %.2f)\n", m.User, m.Vector, m.Score)
	}
	fmt.Printf("index holds %d vectors over %d terms\n", ix.Size().Vectors, ix.Size().Terms)
	// Output:
	// alice matched via vector 0 (score 0.68)
	// index holds 3 vectors over 5 terms
}
