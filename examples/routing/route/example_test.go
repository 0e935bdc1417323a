package route_test

import (
	"fmt"

	"mmprofile/examples/routing/route"
	"mmprofile/internal/vsm"
)

func v(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

// Example routes a document through a two-leaf broker tree: the edge
// aggregates forward it only toward the interested subscriber.
func Example() {
	root := route.NewNode("root")
	pets := route.NewNode("pets-leaf")
	finance := route.NewNode("finance-leaf")
	root.AddChild(pets)
	root.AddChild(finance)
	pets.Subscribe("alice", []vsm.Vector{v("cat", 1.0, "dog", 0.5)})
	finance.Subscribe("bob", []vsm.Vector{v("stock", 1.0, "bond", 0.5)})
	root.Rebuild(0.3, 100)

	deliveries, stats := root.Route(v("cat", 1.0), 0.3, 0.3)
	for _, d := range deliveries {
		fmt.Printf("delivered to %s\n", d.User)
	}
	fmt.Printf("links: %d traversed, %d pruned\n", stats.LinksTraversed, stats.LinksPruned)
	// Output:
	// delivered to alice
	// links: 1 traversed, 1 pruned
}
