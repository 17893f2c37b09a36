package rpl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/harpnet/harp/internal/topology"
)

// diamondGraph: gateway 0, nodes 1..3; 0-1 (1.0), 0-2 (1.5), 1-3 (1.0),
// 2-3 (1.2). Best tree: 1 and 2 under 0; 3 under 1 (rank 2.0 < 2.7).
func diamondGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for i := topology.NodeID(1); i <= 3; i++ {
		g.AddNode(i)
	}
	set := func(a, b topology.NodeID, etx float64) {
		if err := g.SetETX(a, b, etx); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 1, 1.0)
	set(0, 2, 1.5)
	set(1, 3, 1.0)
	set(2, 3, 1.2)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := diamondGraph(t)
	if v, ok := g.ETX(1, 0); !ok || v != 1.0 {
		t.Errorf("ETX(1,0) = %v %v", v, ok)
	}
	if _, ok := g.ETX(1, 2); ok {
		t.Error("phantom link")
	}
	if err := g.SetETX(0, 1, 0.5); err == nil {
		t.Error("ETX < 1 accepted")
	}
	if err := g.SetETX(0, 99, 2); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := g.SetETX(1, 1, 2); err == nil {
		t.Error("self link accepted")
	}
	if err := g.Degrade(1, 2, 2); err == nil {
		t.Error("degrading missing link accepted")
	}
	if err := g.Degrade(0, 1, 1); err == nil {
		t.Error("factor <= 1 accepted")
	}
	if len(g.Nodes()) != 4 {
		t.Errorf("nodes = %v", g.Nodes())
	}
}

func TestRanksAndFormTree(t *testing.T) {
	g := diamondGraph(t)
	ranks, parents, err := g.Ranks()
	if err != nil {
		t.Fatal(err)
	}
	if ranks[3] != 2.0 || parents[3] != 1 {
		t.Errorf("node 3: rank %.2f parent %d, want 2.0 via 1", ranks[3], parents[3])
	}
	tree, err := g.FormTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if p, _ := tree.Parent(3); p != 1 {
		t.Errorf("tree parent(3) = %d, want 1", p)
	}
	if tree.Len() != 4 {
		t.Errorf("tree size = %d", tree.Len())
	}
}

func TestPartitionedGraphRejected(t *testing.T) {
	g := NewGraph()
	g.AddNode(1)
	g.AddNode(2)
	if err := g.SetETX(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Node 2 has no links.
	if _, _, err := g.Ranks(); !errors.Is(err, ErrPartitioned) {
		t.Errorf("want ErrPartitioned, got %v", err)
	}
	if _, err := g.FormTree(); !errors.Is(err, ErrPartitioned) {
		t.Errorf("want ErrPartitioned, got %v", err)
	}
}

func TestDegradeTriggersReparent(t *testing.T) {
	g := diamondGraph(t)
	tree, err := g.FormTree()
	if err != nil {
		t.Fatal(err)
	}
	// Interference on 1-3: node 3 should switch to parent 2
	// (rank via 2: 1.5+1.2=2.7 < via degraded 1: 1+4=5).
	if err := g.Degrade(1, 3, 4); err != nil {
		t.Fatal(err)
	}
	changes, err := g.Reconverge(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Node != 3 || changes[0].To != 2 || changes[0].From != 1 {
		t.Fatalf("changes = %+v", changes)
	}
	if p, _ := tree.Parent(3); p != 2 {
		t.Errorf("parent(3) = %d after reconverge", p)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Idempotent: nothing changes on a second pass.
	changes, err = g.Reconverge(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Errorf("spurious changes: %+v", changes)
	}
}

func TestRandomGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := RandomGeometric(30, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := g.FormTree()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 30 {
		t.Errorf("tree size = %d, want 30", tree.Len())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := RandomGeometric(1, 0.3, rng); err == nil {
		t.Error("n < 2 accepted")
	}
	if _, err := RandomGeometric(5, 0, rng); err == nil {
		t.Error("zero radius accepted")
	}
}

func TestRandomGeometricPropertyConnectedAndValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := RandomGeometric(10+rng.Intn(40), 0.25, rng)
		if err != nil {
			return false
		}
		tree, err := g.FormTree()
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		// Ranks must be monotone along the tree: child rank > parent rank.
		ranks, _, err := g.Ranks()
		if err != nil {
			return false
		}
		for _, id := range tree.Nodes() {
			if id == topology.GatewayID {
				continue
			}
			p, _ := tree.Parent(id)
			if ranks[id] <= ranks[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
