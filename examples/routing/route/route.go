// Package route implements profile-driven content routing, the third use
// the paper's opening sentence gives user profiles ("scheduling, bandwidth
// allocation, and routing decisions"): a dissemination tree in which every
// edge carries an aggregate of all subscriber profiles reachable through
// it, and a published document is forwarded down an edge only when it is
// similar enough to that aggregate. Against flooding (send everything
// everywhere), profile-driven routing trades a configurable amount of
// recall at the aggregates for a large reduction in link traffic.
//
// Aggregation reuses the thesis of the paper itself: a set of interest
// vectors compresses well under threshold clustering. An edge aggregate is
// built by folding every downstream profile vector into an MM-style
// cluster set with an aggregation threshold θ_a — coarser than any single
// user's profile, exactly fine enough for a forwarding decision.
package route

import (
	"fmt"
	"sort"

	"mmprofile/internal/vsm"
)

// Aggregate is a compressed union of profile vectors: the routing filter
// installed on one edge of the dissemination tree.
type Aggregate struct {
	// Theta is the clustering threshold used during construction.
	Theta float64
	// MaxTerms caps each cluster vector's size.
	MaxTerms int

	vectors []vsm.Vector
}

// NewAggregate returns an empty aggregate with the given clustering
// threshold (coarser than profile-learning θ; 0.3 is a reasonable start)
// and per-vector term cap.
func NewAggregate(theta float64, maxTerms int) *Aggregate {
	if maxTerms <= 0 {
		maxTerms = vsm.MaxDocumentTerms
	}
	return &Aggregate{Theta: theta, MaxTerms: maxTerms}
}

// Add folds one profile vector into the aggregate: it merges into the
// nearest cluster when similar enough, otherwise starts a new cluster —
// the same single-pass clustering MM uses for profiles, without feedback
// polarity (aggregates only describe what *is* wanted downstream).
func (a *Aggregate) Add(v vsm.Vector) {
	if v.IsZero() {
		return
	}
	v = v.Normalized()
	best, bestIdx := -1.0, -1
	for i, c := range a.vectors {
		if s := vsm.Cosine(c, v); s > best {
			best, bestIdx = s, i
		}
	}
	if bestIdx >= 0 && best >= a.Theta {
		merged := vsm.Combine(a.vectors[bestIdx], 1, v, 1)
		a.vectors[bestIdx] = merged.Truncated(a.MaxTerms).Normalized()
		return
	}
	a.vectors = append(a.vectors, v.Truncated(a.MaxTerms))
}

// AddAll folds a whole profile (e.g. filter.VectorSource output).
func (a *Aggregate) AddAll(vs []vsm.Vector) {
	for _, v := range vs {
		a.Add(v)
	}
}

// Size returns the number of cluster vectors in the aggregate.
func (a *Aggregate) Size() int { return len(a.vectors) }

// Score returns the document's best similarity to any cluster.
func (a *Aggregate) Score(doc vsm.Vector) float64 {
	best := 0.0
	for _, c := range a.vectors {
		if s := vsm.Cosine(c, doc); s > best {
			best = s
		}
	}
	return best
}

// Node is one broker in the dissemination tree. Leaves hold subscriber
// profiles (as vector sets); interior nodes hold children and, per child,
// the aggregate filter guarding that edge.
type Node struct {
	Name     string
	children []*Node
	edges    []*Aggregate // edges[i] guards children[i]

	// Leaf state.
	profiles map[string][]vsm.Vector
}

// NewNode creates a node.
func NewNode(name string) *Node {
	return &Node{Name: name, profiles: make(map[string][]vsm.Vector)}
}

// AddChild attaches a child node; its edge aggregate is built by Rebuild.
func (n *Node) AddChild(c *Node) {
	n.children = append(n.children, c)
	n.edges = append(n.edges, nil)
}

// Subscribe installs a subscriber's profile vectors at this (leaf) node.
func (n *Node) Subscribe(user string, vectors []vsm.Vector) {
	cp := make([]vsm.Vector, len(vectors))
	for i, v := range vectors {
		cp[i] = v.Clone()
	}
	n.profiles[user] = cp
}

// Unsubscribe removes a subscriber.
func (n *Node) Unsubscribe(user string) {
	delete(n.profiles, user)
}

// Subscribers returns the user ids at this node, sorted.
func (n *Node) Subscribers() []string {
	out := make([]string, 0, len(n.profiles))
	for u := range n.profiles {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Rebuild recomputes every edge aggregate in the subtree bottom-up and
// returns this node's own aggregate (the filter its parent should
// install). Call after subscriptions change; in a deployment this is the
// advertisement propagation step.
func (n *Node) Rebuild(theta float64, maxTerms int) *Aggregate {
	agg := NewAggregate(theta, maxTerms)
	for _, vs := range n.profiles {
		agg.AddAll(vs)
	}
	for i, c := range n.children {
		childAgg := c.Rebuild(theta, maxTerms)
		n.edges[i] = childAgg
		for _, v := range childAgg.vectors {
			agg.Add(v)
		}
	}
	return agg
}

// Delivery reports one document reaching one subscriber at some leaf.
type Delivery struct {
	User  string
	Score float64
}

// RouteStats counts the traffic of one Route call.
type RouteStats struct {
	// LinksTraversed is the number of edges the document was forwarded
	// over (the network cost).
	LinksTraversed int
	// LinksPruned is the number of edges suppressed by aggregate filters.
	LinksPruned int
}

// Route pushes one document through the subtree: it is matched against
// the local subscribers of every node it reaches, and forwarded down an
// edge only when the edge aggregate scores ≥ forwardThreshold. The final
// per-user delivery check uses deliverThreshold against the user's own
// profile vectors (≥ forwardThreshold; typically the broker threshold).
func (n *Node) Route(doc vsm.Vector, forwardThreshold, deliverThreshold float64) ([]Delivery, RouteStats) {
	var out []Delivery
	var stats RouteStats
	n.route(doc, forwardThreshold, deliverThreshold, &out, &stats)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].User < out[j].User
	})
	return out, stats
}

func (n *Node) route(doc vsm.Vector, fwd, del float64, out *[]Delivery, stats *RouteStats) {
	for user, vs := range n.profiles {
		best := 0.0
		for _, v := range vs {
			if s := vsm.Cosine(v, doc); s > best {
				best = s
			}
		}
		if best >= del {
			*out = append(*out, Delivery{User: user, Score: best})
		}
	}
	for i, c := range n.children {
		if n.edges[i] == nil {
			// Never rebuilt: fail open (flooding) rather than dropping.
			stats.LinksTraversed++
			c.route(doc, fwd, del, out, stats)
			continue
		}
		if n.edges[i].Score(doc) >= fwd {
			stats.LinksTraversed++
			c.route(doc, fwd, del, out, stats)
		} else {
			stats.LinksPruned++
		}
	}
}

// Flood pushes the document everywhere (no aggregate filtering): the
// baseline routing strategy and the ground truth for recall measurements.
func (n *Node) Flood(doc vsm.Vector, deliverThreshold float64) ([]Delivery, RouteStats) {
	return n.Route(doc, -1, deliverThreshold)
}

// CountLinks returns the number of edges in the subtree.
func (n *Node) CountLinks() int {
	total := len(n.children)
	for _, c := range n.children {
		total += c.CountLinks()
	}
	return total
}

// String renders the subtree for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("Node(%s: %d subscribers, %d children)", n.Name, len(n.profiles), len(n.children))
}
