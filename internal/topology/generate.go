package topology

import (
	"fmt"
	"math/rand"
)

// GenSpec parameterises random tree generation for the simulation studies
// (§VII): "randomly generate 100 network topologies with 5 layers and 50
// nodes". Layers here is the target hop depth of the tree.
type GenSpec struct {
	Nodes       int // total nodes including the gateway (> 1)
	Layers      int // exact maximum link layer the tree must reach (>= 1)
	MaxChildren int // fan-out cap per node; 0 means unlimited
}

// Validate reports whether the spec is internally consistent.
func (s GenSpec) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("topology: spec needs at least 2 nodes, got %d", s.Nodes)
	}
	if s.Layers < 1 {
		return fmt.Errorf("topology: spec needs at least 1 layer, got %d", s.Layers)
	}
	if s.Nodes-1 < s.Layers {
		return fmt.Errorf("topology: %d non-gateway nodes cannot reach %d layers", s.Nodes-1, s.Layers)
	}
	if s.MaxChildren < 0 {
		return fmt.Errorf("topology: negative MaxChildren %d", s.MaxChildren)
	}
	return nil
}

// Generate builds a random tree matching the spec: first a backbone chain
// guarantees the requested depth, then remaining nodes attach to uniformly
// random parents whose depth leaves them within the layer budget and whose
// fan-out is below the cap. The result is deterministic for a given rng
// state.
func Generate(spec GenSpec, rng *rand.Rand) (*Tree, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := New()
	t.reserve(spec.Nodes)
	next := NodeID(1)
	// Backbone: gateway -> 1 -> 2 -> ... guaranteeing the target depth.
	parent := GatewayID
	for d := 1; d <= spec.Layers; d++ {
		if err := t.AddNode(next, parent); err != nil {
			return nil, err
		}
		parent = next
		next++
	}
	// Attach the rest at random eligible parents.
	for int(next) < spec.Nodes {
		candidates := make([]NodeID, 0, t.Len())
		for _, id := range t.Nodes() {
			d, _ := t.Depth(id) //harplint:allow errcheck id comes from t.Nodes() and is always present
			if d >= spec.Layers {
				continue // a child would exceed the layer budget
			}
			if spec.MaxChildren > 0 && len(t.Children(id)) >= spec.MaxChildren {
				continue
			}
			candidates = append(candidates, id)
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topology: fan-out cap %d too tight for %d nodes", spec.MaxChildren, spec.Nodes)
		}
		p := candidates[rng.Intn(len(candidates))]
		if err := t.AddNode(next, p); err != nil {
			return nil, err
		}
		next++
	}
	return t, nil
}

// GenerateScale builds a random tree for the scale experiment family
// (1k–100k nodes). Generate rebuilds its candidate list per attached node —
// O(N²), unusable at 50k — and its draw sequence is pinned by the fig11/12
// benchmarks, so this is a separate generator: it keeps an incremental
// candidate slice (a node leaves when its fan-out fills, never re-scanned)
// and uses swap-removal, giving O(N) total work. The result is
// deterministic for a given rng state.
func GenerateScale(spec GenSpec, rng *rand.Rand) (*Tree, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := New()
	t.reserve(spec.Nodes)
	next := NodeID(1)
	parent := GatewayID
	for d := 1; d <= spec.Layers; d++ {
		if err := t.AddNode(next, parent); err != nil {
			return nil, err
		}
		parent = next
		next++
	}
	// Candidate pool: nodes that may still accept a child. Tracked
	// incrementally; fan-out counts live in a flat slice keyed by the dense
	// node index.
	fanout := make([]int, spec.Nodes)
	candidates := make([]NodeID, 0, spec.Nodes)
	for _, id := range t.Nodes() {
		d, _ := t.Depth(id) //harplint:allow errcheck id comes from t.Nodes() and is always present
		kids := len(t.Children(id))
		fanout[t.Index(id)] = kids
		if d >= spec.Layers {
			continue
		}
		if spec.MaxChildren > 0 && kids >= spec.MaxChildren {
			continue
		}
		candidates = append(candidates, id)
	}
	for int(next) < spec.Nodes {
		if len(candidates) == 0 {
			return nil, fmt.Errorf("topology: fan-out cap %d too tight for %d nodes", spec.MaxChildren, spec.Nodes)
		}
		ci := rng.Intn(len(candidates))
		p := candidates[ci]
		if err := t.AddNode(next, p); err != nil {
			return nil, err
		}
		pi := t.Index(p)
		fanout[pi]++
		if spec.MaxChildren > 0 && fanout[pi] >= spec.MaxChildren {
			candidates[ci] = candidates[len(candidates)-1]
			candidates = candidates[:len(candidates)-1]
		}
		// The new node is itself a candidate unless at the layer budget.
		if d, _ := t.Depth(next); d < spec.Layers { //harplint:allow errcheck next was just added
			candidates = append(candidates, next)
		}
		next++
	}
	return t, nil
}

// Fig1 returns the 12-node, 3-layer example topology of Fig. 1(a) in the
// paper: the gateway with children 1, 2, 3; node 1 with children 4 and 5;
// node 3 with children 6 and 7; node 5 with children 8 and 9; node 7 with
// children 10 and 11.
func Fig1() *Tree {
	t := New()
	edges := [][2]NodeID{
		{1, GatewayID}, {2, GatewayID}, {3, GatewayID},
		{4, 1}, {5, 1},
		{6, 3}, {7, 3},
		{8, 5}, {9, 5},
		{10, 7}, {11, 7},
	}
	for _, e := range edges {
		if err := t.AddNode(e[0], e[1]); err != nil {
			panic(err) // static topology; cannot fail
		}
	}
	return t
}

// Testbed50 returns a 50-node, 5-hop tree shaped like the testbed logical
// topology of Fig. 7(c): three first-hop relays, each heading a branch that
// reaches depth 5, with sensors spread across intermediate layers. The exact
// per-figure coordinates are not published; this reconstruction matches the
// published structural facts (50 devices, 5 hops, multiple branches with
// uneven fan-out).
func Testbed50() *Tree {
	t := New()
	add := func(id, parent NodeID) {
		if err := t.AddNode(id, parent); err != nil {
			panic(err)
		}
	}
	// Layer 1: three branch heads.
	add(1, GatewayID)
	add(2, GatewayID)
	add(3, GatewayID)
	// Branch under node 1 (18 descendants).
	add(4, 1)
	add(5, 1)
	add(6, 1)
	add(7, 4)
	add(8, 4)
	add(9, 5)
	add(10, 5)
	add(11, 6)
	add(12, 7)
	add(13, 7)
	add(14, 8)
	add(15, 9)
	add(16, 10)
	add(17, 11)
	add(18, 12)
	add(19, 13)
	add(20, 14)
	add(21, 15)
	// Branch under node 2 (14 descendants).
	add(22, 2)
	add(23, 2)
	add(24, 22)
	add(25, 22)
	add(26, 23)
	add(27, 23)
	add(28, 24)
	add(29, 25)
	add(30, 26)
	add(31, 27)
	add(32, 28)
	add(33, 29)
	add(34, 30)
	add(35, 31)
	// Branch under node 3 (14 descendants).
	add(36, 3)
	add(37, 3)
	add(38, 36)
	add(39, 36)
	add(40, 37)
	add(41, 37)
	add(42, 38)
	add(43, 39)
	add(44, 40)
	add(45, 41)
	add(46, 42)
	add(47, 43)
	add(48, 44)
	add(49, 45)
	return t
}

// Deep81 returns an 81-node, 10-layer tree in the shape used by the
// adjustment-overhead study (§VII-B): eight nodes per layer on average, each
// layer fed by the one above, so requests can be injected at every depth.
func Deep81() *Tree {
	t := New()
	next := NodeID(1)
	prev := []NodeID{GatewayID}
	for layer := 1; layer <= 10; layer++ {
		// 8 nodes per layer for each of layers 1..10 = 80 + gateway = 81.
		cur := make([]NodeID, 0, 8)
		for i := 0; i < 8; i++ {
			parent := prev[i%len(prev)]
			if err := t.AddNode(next, parent); err != nil {
				panic(err)
			}
			cur = append(cur, next)
			next++
		}
		prev = cur
	}
	return t
}
