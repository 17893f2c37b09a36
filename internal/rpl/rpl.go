// Package rpl is a lightweight model of RPL (RFC 6550), the routing
// protocol 6TiSCH uses to form its tree topology (§VI-A). It builds a
// DODAG over a link-quality graph — each node selects the parent that
// minimises its rank, rank being the parent's rank plus the link's ETX —
// and models the runtime dynamics HARP must absorb: link-quality
// degradation causing parent switches, and node churn.
package rpl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/harpnet/harp/internal/topology"
)

// edge is an undirected node pair with a canonical order.
type edge struct {
	a, b topology.NodeID
}

func mkEdge(a, b topology.NodeID) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a: a, b: b}
}

// Graph is a link-quality graph: candidate radio links with ETX values
// (expected transmission count; 1 is a perfect link, higher is worse).
type Graph struct {
	nodes map[topology.NodeID]bool
	etx   map[edge]float64
}

// NewGraph returns a graph containing only the gateway.
func NewGraph() *Graph {
	g := &Graph{nodes: make(map[topology.NodeID]bool), etx: make(map[edge]float64)}
	g.nodes[topology.GatewayID] = true
	return g
}

// AddNode inserts a node.
func (g *Graph) AddNode(id topology.NodeID) {
	g.nodes[id] = true
}

// SetETX sets the quality of the link between a and b (etx >= 1).
func (g *Graph) SetETX(a, b topology.NodeID, etx float64) error {
	if etx < 1 {
		return fmt.Errorf("rpl: ETX %.2f < 1", etx)
	}
	if !g.nodes[a] || !g.nodes[b] {
		return fmt.Errorf("rpl: unknown endpoint in (%d,%d)", a, b)
	}
	if a == b {
		return fmt.Errorf("rpl: self link at %d", a)
	}
	g.etx[mkEdge(a, b)] = etx
	return nil
}

// Degrade multiplies a link's ETX by factor (> 1), modelling interference.
func (g *Graph) Degrade(a, b topology.NodeID, factor float64) error {
	if factor <= 1 {
		return fmt.Errorf("rpl: degrade factor %.2f <= 1", factor)
	}
	e := mkEdge(a, b)
	v, ok := g.etx[e]
	if !ok {
		return fmt.Errorf("rpl: no link (%d,%d)", a, b)
	}
	g.etx[e] = v * factor
	return nil
}

// Nodes returns the node IDs, sorted.
func (g *Graph) Nodes() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// neighbours returns a node's neighbours with their ETX, sorted by ID.
func (g *Graph) neighbours(id topology.NodeID) []struct {
	id  topology.NodeID
	etx float64
} {
	var out []struct {
		id  topology.NodeID
		etx float64
	}
	for e, v := range g.etx {
		switch id {
		case e.a:
			out = append(out, struct {
				id  topology.NodeID
				etx float64
			}{e.b, v})
		case e.b:
			out = append(out, struct {
				id  topology.NodeID
				etx float64
			}{e.a, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ErrPartitioned indicates some node cannot reach the gateway.
var ErrPartitioned = errors.New("rpl: graph is partitioned")

// Ranks computes every node's rank (cumulative ETX to the gateway) and best
// parent, Dijkstra-style — the stable fixed point of RPL's distributed
// parent selection.
func (g *Graph) Ranks() (map[topology.NodeID]float64, map[topology.NodeID]topology.NodeID, error) {
	rank := make(map[topology.NodeID]float64, len(g.nodes))
	parent := make(map[topology.NodeID]topology.NodeID, len(g.nodes))
	for id := range g.nodes {
		rank[id] = math.Inf(1)
	}
	rank[topology.GatewayID] = 0
	parent[topology.GatewayID] = topology.None
	visited := make(map[topology.NodeID]bool, len(g.nodes))
	for range g.nodes {
		// Extract the unvisited node with minimal rank (ties by ID for
		// determinism).
		best := topology.None
		for _, id := range g.Nodes() {
			if visited[id] {
				continue
			}
			if best == topology.None || rank[id] < rank[best] {
				best = id
			}
		}
		if best == topology.None || math.IsInf(rank[best], 1) {
			break
		}
		visited[best] = true
		for _, nb := range g.neighbours(best) {
			if cand := rank[best] + nb.etx; cand < rank[nb.id] {
				rank[nb.id] = cand
				parent[nb.id] = best
			}
		}
	}
	for id := range g.nodes {
		if math.IsInf(rank[id], 1) {
			return nil, nil, fmt.Errorf("%w: node %d unreachable", ErrPartitioned, id)
		}
	}
	return rank, parent, nil
}

// FormTree runs parent selection and materialises the routing tree.
func (g *Graph) FormTree() (*topology.Tree, error) {
	_, parents, err := g.Ranks()
	if err != nil {
		return nil, err
	}
	tree := topology.New()
	// Attach nodes in BFS order so parents exist before children.
	pending := g.Nodes()
	for len(pending) > 0 {
		progressed := false
		rest := pending[:0]
		for _, id := range pending {
			if id == topology.GatewayID {
				progressed = true
				continue
			}
			if tree.Has(parents[id]) {
				if err := tree.AddNode(id, parents[id]); err != nil {
					return nil, err
				}
				progressed = true
			} else {
				rest = append(rest, id)
			}
		}
		if !progressed {
			return nil, ErrPartitioned
		}
		pending = rest
	}
	return tree, nil
}

// Reparent describes one parent switch produced by reconvergence.
type Reparent struct {
	Node topology.NodeID
	From topology.NodeID
	To   topology.NodeID
}

// Reconverge recomputes parent selection and applies the switches to the
// tree in place, returning the changes — the topology-dynamics events that
// trigger HARP partition reconfiguration.
func (g *Graph) Reconverge(tree *topology.Tree) ([]Reparent, error) {
	_, parents, err := g.Ranks()
	if err != nil {
		return nil, err
	}
	var changes []Reparent
	// Apply in rank order (shallowest first) so new parents are placed
	// before their dependants move under them.
	ranks, _, err := g.Ranks()
	if err != nil {
		return nil, err
	}
	ids := g.Nodes()
	sort.Slice(ids, func(i, j int) bool {
		if ranks[ids[i]] != ranks[ids[j]] {
			return ranks[ids[i]] < ranks[ids[j]]
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		if id == topology.GatewayID {
			continue
		}
		cur, err := tree.Parent(id)
		if err != nil {
			return nil, err
		}
		want := parents[id]
		if cur == want {
			continue
		}
		if err := tree.Reparent(id, want); err != nil {
			return nil, fmt.Errorf("rpl: applying switch of %d: %w", id, err)
		}
		changes = append(changes, Reparent{Node: id, From: cur, To: want})
	}
	return changes, nil
}

// RandomGeometric builds a connected random geometric graph: n nodes placed
// uniformly in the unit square (gateway at the centre), links between nodes
// within the given radius, ETX growing with distance plus noise. It retries
// with a growing radius until the graph is connected.
func RandomGeometric(n int, radius float64, rng *rand.Rand) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("rpl: need at least 2 nodes, got %d", n)
	}
	if radius <= 0 || radius > 1.5 {
		return nil, fmt.Errorf("rpl: radius %.2f outside (0, 1.5]", radius)
	}
	type pos struct{ x, y float64 }
	for attempt := 0; attempt < 8; attempt++ {
		g := NewGraph()
		places := map[topology.NodeID]pos{topology.GatewayID: {0.5, 0.5}}
		for i := 1; i < n; i++ {
			id := topology.NodeID(i)
			g.AddNode(id)
			places[id] = pos{rng.Float64(), rng.Float64()}
		}
		ids := g.Nodes()
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				dx := places[a].x - places[b].x
				dy := places[a].y - places[b].y
				d := math.Sqrt(dx*dx + dy*dy)
				if d <= radius {
					etx := 1 + 2*(d/radius) + rng.Float64()*0.5
					if err := g.SetETX(a, b, etx); err != nil {
						return nil, err
					}
				}
			}
		}
		if _, _, err := g.Ranks(); err == nil {
			return g, nil
		}
		radius *= 1.4
		if radius > 1.5 {
			radius = 1.5
		}
	}
	return nil, ErrPartitioned
}
