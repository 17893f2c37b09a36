package topology

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mapModel is the reference the dense Tree is checked against: the tree as
// plain maps, every query recomputed from scratch by scanning and sorting.
type mapModel struct {
	parent map[NodeID]NodeID
	index  map[NodeID]int // insertion order
}

func newMapModel() *mapModel {
	return &mapModel{parent: map[NodeID]NodeID{GatewayID: None}, index: map[NodeID]int{GatewayID: 0}}
}

func (m *mapModel) has(id NodeID) bool { _, ok := m.parent[id]; return ok }

// add mirrors AddNode, returning the error class the tree must report.
func (m *mapModel) add(id, parent NodeID) error {
	switch {
	case id < 0 || id > MaxNodeID:
		return ErrNodeID
	case m.has(id):
		return ErrDuplicateNode
	case !m.has(parent):
		return ErrUnknownNode
	}
	m.parent[id] = parent
	m.index[id] = len(m.index)
	return nil
}

// reparent mirrors Reparent, returning the error class the tree must report.
func (m *mapModel) reparent(id, np NodeID) error {
	switch {
	case !m.has(id):
		return ErrUnknownNode
	case id == GatewayID:
		return ErrGateway
	case !m.has(np):
		return ErrUnknownNode
	}
	for cur := np; cur != None; cur = m.parent[cur] {
		if cur == id {
			return ErrCycle
		}
	}
	m.parent[id] = np
	return nil
}

func (m *mapModel) depth(id NodeID) int {
	d := 0
	for cur := m.parent[id]; cur != None; cur = m.parent[cur] {
		d++
	}
	return d
}

func (m *mapModel) filter(keep func(NodeID) bool) []NodeID {
	out := []NodeID{}
	for id := range m.parent {
		if keep(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (m *mapModel) nodes() []NodeID { return m.filter(func(NodeID) bool { return true }) }

func (m *mapModel) children(id NodeID) []NodeID {
	return m.filter(func(c NodeID) bool { return c != GatewayID && m.parent[c] == id })
}

func (m *mapModel) inSubtree(id, root NodeID) bool {
	for cur := id; cur != None; cur = m.parent[cur] {
		if cur == root {
			return true
		}
	}
	return false
}

func (m *mapModel) subtree(root NodeID) []NodeID {
	return m.filter(func(id NodeID) bool { return m.inSubtree(id, root) })
}

func (m *mapModel) deepestFirst() []NodeID {
	out := m.nodes()
	sort.SliceStable(out, func(i, j int) bool { return m.depth(out[i]) > m.depth(out[j]) })
	return out
}

// agree fails the test unless tr answers every query as m does.
func agree(t *testing.T, step string, tr *Tree, m *mapModel) {
	t.Helper()
	eq := func(what string, got, want []NodeID) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s = %v, model %v", step, what, got, want)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", step, err)
	}
	if tr.Len() != len(m.parent) || tr.IndexCap() != len(m.parent) {
		t.Fatalf("%s: Len %d IndexCap %d, model %d nodes", step, tr.Len(), tr.IndexCap(), len(m.parent))
	}
	all := m.nodes()
	eq("Nodes", tr.Nodes(), all)
	eq("NonLeaves", tr.NonLeaves(), m.filter(func(id NodeID) bool { return len(m.children(id)) > 0 }))
	eq("DeepestFirst", tr.DeepestFirst(), m.deepestFirst())
	maxDepth := 0
	for _, id := range all {
		maxDepth = max(maxDepth, m.depth(id))
	}
	if tr.MaxLayer() != maxDepth {
		t.Fatalf("%s: MaxLayer %d, model %d", step, tr.MaxLayer(), maxDepth)
	}
	for d := -1; d <= maxDepth+1; d++ {
		want := m.filter(func(id NodeID) bool { return m.depth(id) == d })
		if got := tr.NodesAtDepth(d); len(got) != 0 || len(want) != 0 {
			eq("NodesAtDepth", got, want)
		}
	}
	maxLayers := tr.SubtreeMaxLayers()
	for _, id := range all {
		i := tr.Index(id)
		if i != m.index[id] || tr.NodeAt(i) != id {
			t.Fatalf("%s: node %d Index %d NodeAt %d, model index %d", step, id, i, tr.NodeAt(i), m.index[id])
		}
		if p, err := tr.Parent(id); err != nil || p != m.parent[id] {
			t.Fatalf("%s: Parent(%d) = %d, %v; model %d", step, id, p, err, m.parent[id])
		}
		if d, err := tr.Depth(id); err != nil || d != m.depth(id) {
			t.Fatalf("%s: Depth(%d) = %d, %v; model %d", step, id, d, err, m.depth(id))
		}
		kids := m.children(id)
		eq("Children", tr.Children(id), kids)
		if tr.IsLeaf(id) != (len(kids) == 0) {
			t.Fatalf("%s: IsLeaf(%d) = %v with children %v", step, id, tr.IsLeaf(id), kids)
		}
		sub := m.subtree(id)
		got, err := tr.Subtree(id)
		if err != nil {
			t.Fatal(err)
		}
		eq("Subtree", got, sub)
		deepest := 0
		for _, s := range sub {
			deepest = max(deepest, m.depth(s))
		}
		if ml, err := tr.SubtreeMaxLayer(id); err != nil || ml != deepest || maxLayers[i] != deepest {
			t.Fatalf("%s: node %d SubtreeMaxLayer %d (%v), SubtreeMaxLayers %d, model %d",
				step, id, ml, err, maxLayers[i], deepest)
		}
	}
}

// TestTreeMatchesMapModel is the differential test of the dense tree and
// its cached orders: seeded random AddNode/Reparent scripts — from a bare
// gateway and from Generate's trees, with sparse, duplicate, negative and
// unknown IDs and cyclic moves — run on the tree and on the map model, and
// after every mutation both must answer every query alike. A slice handed
// out before a mutation must keep its contents, and so must the original
// when its clone is mutated.
func TestTreeMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, m := New(), newMapModel()
		if seed%2 == 0 {
			spec := GenSpec{Nodes: 5 + rng.Intn(40), Layers: 1 + rng.Intn(4), MaxChildren: rng.Intn(4)}
			g, err := Generate(spec, rng)
			if err != nil {
				continue // fan-out cap too tight for this draw
			}
			tr = g
			for i := 1; i < g.IndexCap(); i++ {
				id := g.NodeAt(i)
				p, _ := g.Parent(id)
				if err := m.add(id, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		agree(t, "start", tr, m)
		pick := func() NodeID {
			if rng.Intn(10) == 0 {
				return NodeID(rng.Intn(400) - 10) // absent, sparse or negative
			}
			ids := m.nodes()
			return ids[rng.Intn(len(ids))]
		}
		for op := 0; op < 60; op++ {
			before := tr.Nodes()
			kept := slices.Clone(before)
			beforeNL := tr.NonLeaves()
			keptNL := slices.Clone(beforeNL)
			beforeDF := tr.DeepestFirst()
			keptDF := slices.Clone(beforeDF)

			var step string
			var got, want error
			switch r := rng.Intn(10); {
			case r < 5:
				id, parent := NodeID(rng.Intn(300)), pick()
				if rng.Intn(20) == 0 {
					id = -1 - NodeID(rng.Intn(3))
				}
				step = "AddNode"
				got, want = tr.AddNode(id, parent), m.add(id, parent)
			case r < 9:
				id, np := pick(), pick()
				step = "Reparent"
				got, want = tr.Reparent(id, np), m.reparent(id, np)
			default:
				c := tr.Clone()
				if err := c.AddNode(499, GatewayID); err != nil {
					t.Fatal(err)
				}
				if err := c.Reparent(pick(), GatewayID); err != nil && !errors.Is(err, ErrGateway) && !errors.Is(err, ErrUnknownNode) {
					t.Fatal(err)
				}
				step = "mutated clone"
			}
			if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
				t.Fatalf("seed %d op %d %s: tree error %v, model %v", seed, op, step, got, want)
			}
			if !slices.Equal(before, kept) || !slices.Equal(beforeNL, keptNL) || !slices.Equal(beforeDF, keptDF) {
				t.Fatalf("seed %d op %d %s: a slice handed out earlier changed", seed, op, step)
			}
			agree(t, step, tr, m)
		}
	}
}

// TestTreeQueriesDoNotAllocate pins the dense storage: once the orders are
// built, the per-node lookups and the cached orders allocate nothing.
func TestTreeQueriesDoNotAllocate(t *testing.T) {
	tr, err := GenerateScale(GenSpec{Nodes: 2000, Layers: 8, MaxChildren: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.Nodes()
	var sink int
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		id := ids[k%len(ids)]
		k++
		p, _ := tr.Parent(id)
		d, _ := tr.Depth(id)
		sink += tr.Index(id) + int(p) + d + len(tr.Nodes()) + len(tr.NonLeaves()) + len(tr.DeepestFirst()) + tr.MaxLayer()
		if tr.IsLeaf(id) {
			sink++
		}
	})
	if allocs != 0 {
		t.Errorf("tree queries allocate %.1f times per call set, want 0", allocs)
	}
	if sink == 0 {
		t.Error("queries returned nothing")
	}
}

// TestAddNodeRejectsOutOfRangeIDs: the slot table is indexed by ID, so a
// negative ID or one above MaxNodeID is refused and leaves the tree as it
// was; a sparse ID inside the range works.
func TestAddNodeRejectsOutOfRangeIDs(t *testing.T) {
	tr := New()
	for _, id := range []NodeID{-1, None - 5, MaxNodeID + 1} {
		if err := tr.AddNode(id, GatewayID); !errors.Is(err, ErrNodeID) {
			t.Errorf("AddNode(%d): want ErrNodeID, got %v", id, err)
		}
	}
	if tr.Len() != 1 || len(tr.Nodes()) != 1 {
		t.Fatalf("refused IDs changed the tree: %v", tr.Nodes())
	}
	if err := tr.AddNode(100, GatewayID); err != nil {
		t.Fatal(err)
	}
	if tr.Index(100) != 1 || tr.Index(50) != -1 || tr.Index(-1) != -1 {
		t.Errorf("sparse ID: Index(100)=%d Index(50)=%d Index(-1)=%d", tr.Index(100), tr.Index(50), tr.Index(-1))
	}
}
