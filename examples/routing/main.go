// Routing: profiles driving routing decisions — the last of the three
// uses the paper's opening sentence gives user profiles.
//
// A dissemination tree (root → 4 regional brokers → 4 leaf brokers each)
// serves 64 subscribers with MM profiles learned from feedback. Every
// edge carries an aggregate built by threshold-clustering all downstream
// profile vectors — the paper's own compression idea applied one level
// up. Pages are then routed: forwarded down an edge only when they match
// its aggregate. The example measures delivery recall and link traffic
// against flooding.
//
//	go run ./examples/routing
package main

import (
	"fmt"
	"math/rand"

	"mmprofile/examples/routing/route"
	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/eval"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
)

const (
	regions      = 4
	leavesPerReg = 4
	usersPerLeaf = 4
	threshold    = 0.2 // both forwarding and delivery
)

func main() {
	ds := corpus.Generate(corpus.DefaultConfig()).Vectorize(text.NewPipeline())
	rng := rand.New(rand.NewSource(5))
	train, test := ds.Split(rng.Int63(), 500)

	root := route.NewNode("root")
	users := 0
	for r := 0; r < regions; r++ {
		region := route.NewNode(fmt.Sprintf("region%d", r))
		root.AddChild(region)
		for l := 0; l < leavesPerReg; l++ {
			leaf := route.NewNode(fmt.Sprintf("leaf%d%d", r, l))
			region.AddChild(leaf)
			for u := 0; u < usersPerLeaf; u++ {
				user := sim.NewUser(sim.RandomTopInterests(rng, ds, 1+rng.Intn(2))...)
				mm := core.NewDefault()
				eval.Train(mm, user, sim.Stream(rng, train, 400))
				leaf.Subscribe(fmt.Sprintf("u%d", users), mm.ProfileVectors())
				users++
			}
		}
	}
	rootAgg := root.Rebuild(0.3, 100)
	fmt.Printf("%d subscribers across %d brokers, %d links\n",
		users, 1+regions+regions*leavesPerReg, root.CountLinks())
	fmt.Printf("root aggregate compresses everything into %d vectors\n\n", rootAgg.Size())

	var routedDel, floodDel, routedLinks, floodLinks, pruned int
	for _, d := range test {
		rDel, rs := root.Route(d.Vec, threshold, threshold)
		fDel, fs := root.Flood(d.Vec, threshold)
		routedDel += len(rDel)
		floodDel += len(fDel)
		routedLinks += rs.LinksTraversed
		floodLinks += fs.LinksTraversed
		pruned += rs.LinksPruned
	}
	fmt.Printf("pushed %d pages through the tree\n", len(test))
	fmt.Printf("%-28s %12s %14s\n", "strategy", "deliveries", "links used")
	fmt.Printf("%-28s %12d %14d\n", "flooding", floodDel, floodLinks)
	fmt.Printf("%-28s %12d %14d\n", "profile-driven routing", routedDel, routedLinks)
	fmt.Printf("\nrecall %.1f%% of flooding's deliveries using %.1f%% of its traffic\n",
		100*float64(routedDel)/float64(floodDel),
		100*float64(routedLinks)/float64(floodLinks))
}
