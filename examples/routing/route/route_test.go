package route

import (
	"fmt"
	"math/rand"
	"testing"

	"mmprofile/internal/core"
	"mmprofile/internal/corpus"
	"mmprofile/internal/eval"
	"mmprofile/internal/sim"
	"mmprofile/internal/text"
	"mmprofile/internal/vsm"
)

func vec(pairs ...any) vsm.Vector {
	m := map[string]float64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(float64)
	}
	return vsm.FromMap(m).Normalized()
}

func TestAggregateClusters(t *testing.T) {
	a := NewAggregate(0.5, 100)
	a.Add(vec("cat", 1.0, "dog", 0.8))
	a.Add(vec("cat", 0.9, "dog", 1.0)) // similar → merges
	a.Add(vec("stock", 1.0))           // distinct → new cluster
	if a.Size() != 2 {
		t.Fatalf("aggregate size = %d, want 2", a.Size())
	}
	if s := a.Score(vec("cat", 1.0)); s < 0.5 {
		t.Errorf("merged cluster lost its topic: %v", s)
	}
	if s := a.Score(vec("bond", 1.0)); s != 0 {
		t.Errorf("unrelated doc scored %v", s)
	}
	a.Add(vsm.Vector{}) // zero vector is a no-op
	if a.Size() != 2 {
		t.Error("zero vector changed the aggregate")
	}
}

func TestAggregateCoversEveryInput(t *testing.T) {
	// Whatever gets folded in must keep scoring above the aggregation
	// threshold: an aggregate must never "forget" a constituent interest
	// (that would cause false-negative routing).
	rng := rand.New(rand.NewSource(2))
	terms := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	a := NewAggregate(0.4, 100)
	var inputs []vsm.Vector
	for k := 0; k < 60; k++ {
		m := map[string]float64{}
		for _, tm := range terms {
			if rng.Float64() < 0.35 {
				m[tm] = rng.Float64() + 0.01
			}
		}
		v := vsm.FromMap(m).Normalized()
		if v.IsZero() {
			continue
		}
		inputs = append(inputs, v)
		a.Add(v)
	}
	if a.Size() >= len(inputs) {
		t.Errorf("no compression: %d clusters for %d inputs", a.Size(), len(inputs))
	}
	for i, v := range inputs {
		if s := a.Score(v); s < 0.35 {
			t.Errorf("input %d under-covered: score %v", i, s)
		}
	}
}

// buildTree makes a 2-level tree: root → 3 regions → 3 leaves each, with
// one subscriber per leaf whose interest is a distinct concept vector.
func buildTree() (*Node, map[string]vsm.Vector) {
	root := NewNode("root")
	interests := map[string]vsm.Vector{}
	concept := 0
	for r := 0; r < 3; r++ {
		region := NewNode(fmt.Sprintf("region%d", r))
		root.AddChild(region)
		for l := 0; l < 3; l++ {
			leaf := NewNode(fmt.Sprintf("leaf%d%d", r, l))
			region.AddChild(leaf)
			user := fmt.Sprintf("user%d", concept)
			v := vec(fmt.Sprintf("topic%d", concept), 1.0, "shared", 0.2)
			leaf.Subscribe(user, []vsm.Vector{v})
			interests[user] = v
			concept++
		}
	}
	root.Rebuild(0.3, 100)
	return root, interests
}

func TestRouteDeliversToInterestedUser(t *testing.T) {
	root, interests := buildTree()
	doc := interests["user4"] // exact interest of one user
	got, stats := root.Route(doc, 0.3, 0.3)
	if len(got) != 1 || got[0].User != "user4" {
		t.Fatalf("deliveries = %+v", got)
	}
	// Only the path to user4's leaf should be traversed: root→region1,
	// region1→leaf11 = 2 links (other leaves of region1 share "shared"
	// weakly; allow up to the region's 3 leaves + 1).
	if stats.LinksTraversed > 4 {
		t.Errorf("traversed %d links, expected a pruned path", stats.LinksTraversed)
	}
	if stats.LinksPruned == 0 {
		t.Error("nothing pruned")
	}
}

func TestRouteMatchesFloodDeliveries(t *testing.T) {
	// With forwarding threshold equal to delivery threshold and exact
	// aggregates, routing must lose nothing vs flooding on these separated
	// topics.
	root, interests := buildTree()
	for user, v := range interests {
		routed, _ := root.Route(v, 0.3, 0.3)
		flooded, fstats := root.Flood(v, 0.3)
		if len(routed) != len(flooded) {
			t.Fatalf("user %s: routed %d, flooded %d", user, len(routed), len(flooded))
		}
		if fstats.LinksTraversed != root.CountLinks() {
			t.Fatalf("flood traversed %d links, tree has %d", fstats.LinksTraversed, root.CountLinks())
		}
	}
}

func TestRouteSavesTraffic(t *testing.T) {
	root, interests := buildTree()
	var routedLinks, floodLinks int
	for _, v := range interests {
		_, rs := root.Route(v, 0.3, 0.3)
		_, fs := root.Flood(v, 0.3)
		routedLinks += rs.LinksTraversed
		floodLinks += fs.LinksTraversed
	}
	if routedLinks*2 > floodLinks {
		t.Errorf("routing used %d links vs flooding %d — expected <50%%", routedLinks, floodLinks)
	}
}

func TestUnsubscribeAndRebuild(t *testing.T) {
	root, interests := buildTree()
	// Remove user0 and rebuild: its topic must stop being routed.
	var leaf *Node
	var find func(n *Node)
	find = func(n *Node) {
		for _, u := range n.Subscribers() {
			if u == "user0" {
				leaf = n
			}
		}
		for _, c := range n.children {
			find(c)
		}
	}
	find(root)
	if leaf == nil {
		t.Fatal("user0 leaf not found")
	}
	leaf.Unsubscribe("user0")
	root.Rebuild(0.3, 100)
	got, _ := root.Route(interests["user0"], 0.3, 0.3)
	if len(got) != 0 {
		t.Errorf("deliveries after unsubscribe: %+v", got)
	}
}

func TestUnbuiltEdgeFailsOpen(t *testing.T) {
	root := NewNode("root")
	leaf := NewNode("leaf")
	root.AddChild(leaf)
	leaf.Subscribe("alice", []vsm.Vector{vec("cat", 1.0)})
	// No Rebuild: the edge aggregate is nil and must flood, not drop.
	got, _ := root.Route(vec("cat", 1.0), 0.5, 0.5)
	if len(got) != 1 {
		t.Fatalf("fail-open routing lost the delivery: %+v", got)
	}
}

// TestRoutingWithLearnedProfiles is the integration test: profiles learned
// by MM on the synthetic corpus, installed at leaves, aggregated up a
// tree; routed deliveries must recall nearly everything flooding delivers
// at a fraction of the traffic.
func TestRoutingWithLearnedProfiles(t *testing.T) {
	cfg := corpus.DefaultConfig()
	cfg.TopCategories = 6
	cfg.SubPerTop = 4
	cfg.PagesPerSub = 6
	cfg.MinWords = 80
	cfg.MaxWords = 160
	ds := corpus.Generate(cfg).Vectorize(text.NewPipeline())
	rng := rand.New(rand.NewSource(9))
	train, test := ds.Split(rng.Int63(), 100)

	root := NewNode("root")
	numLeaves := 4
	usersPerLeaf := 3
	for l := 0; l < numLeaves; l++ {
		leaf := NewNode(fmt.Sprintf("leaf%d", l))
		root.AddChild(leaf)
		for u := 0; u < usersPerLeaf; u++ {
			user := sim.NewUser(sim.RandomTopInterests(rng, ds, 1)...)
			mm := core.NewDefault()
			eval.Train(mm, user, sim.Stream(rng, train, len(train)))
			leaf.Subscribe(fmt.Sprintf("user%d_%d", l, u), mm.ProfileVectors())
		}
	}
	root.Rebuild(0.3, 100)

	var routedDeliveries, floodDeliveries, routedLinks, floodLinks int
	for _, d := range test {
		r, rs := root.Route(d.Vec, 0.15, 0.15)
		f, fs := root.Flood(d.Vec, 0.15)
		routedDeliveries += len(r)
		floodDeliveries += len(f)
		routedLinks += rs.LinksTraversed
		floodLinks += fs.LinksTraversed
	}
	if floodDeliveries == 0 {
		t.Fatal("flooding delivered nothing — workload bug")
	}
	recall := float64(routedDeliveries) / float64(floodDeliveries)
	traffic := float64(routedLinks) / float64(floodLinks)
	t.Logf("routing recall %.3f at %.0f%% of flooding traffic", recall, 100*traffic)
	if recall < 0.95 {
		t.Errorf("routing recall %.3f below 95%%", recall)
	}
	if traffic > 0.8 {
		t.Errorf("routing used %.0f%% of flooding traffic — no savings", 100*traffic)
	}
}
