package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func TestCaseString(t *testing.T) {
	for _, c := range []Case{CaseRelease, CaseScheduleUpdate, CasePartitionUpdate, CaseRejected, Case(9)} {
		if c.String() == "" {
			t.Errorf("Case(%d).String empty", int(c))
		}
	}
}

func TestSetLinkDemandRelease(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 2, testFrame())
	l := topology.Link{Child: 8, Direction: topology.Uplink}
	before := plan.Demand(l)
	adj, err := plan.SetLinkDemand(l, before-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CaseRelease {
		t.Errorf("case = %v, want release", adj.Case)
	}
	if adj.RequestMessages != 0 || adj.PartitionMessages != 0 {
		t.Errorf("release should not send HARP messages, got %d/%d",
			adj.RequestMessages, adj.PartitionMessages)
	}
	if got := len(plan.CellsOf(l)); got != before-1 {
		t.Errorf("cells after release = %d, want %d", got, before-1)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetLinkDemandCase1LocalSlack(t *testing.T) {
	// Give node 5's own-layer partition slack by first lowering demand of
	// one child link, then raising the other: the raise must be absorbed
	// locally (Case 1).
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	l8 := topology.Link{Child: 8, Direction: topology.Uplink}
	l9 := topology.Link{Child: 9, Direction: topology.Uplink}
	if _, err := plan.SetLinkDemand(l8, 0, 0); err != nil {
		t.Fatal(err)
	}
	adj, err := plan.SetLinkDemand(l9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CaseScheduleUpdate {
		t.Errorf("case = %v, want schedule-update", adj.Case)
	}
	if adj.LayersClimbed != 0 {
		t.Errorf("local update climbed %d layers", adj.LayersClimbed)
	}
	if got := len(plan.CellsOf(l9)); got != 2 {
		t.Errorf("cells = %d, want 2", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetLinkDemandCase2Escalation(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	l8 := topology.Link{Child: 8, Direction: topology.Uplink}
	// Node 5's layer-3 partition is sized exactly for demands {8:1, 9:1};
	// tripling link 8 forces a partition update at an ancestor.
	adj, err := plan.SetLinkDemand(l8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CasePartitionUpdate {
		t.Errorf("case = %v, want partition-update", adj.Case)
	}
	if adj.RequestMessages < 1 {
		t.Errorf("escalation sent %d requests, want >= 1", adj.RequestMessages)
	}
	if adj.TotalMessages() != adj.RequestMessages+adj.PartitionMessages {
		t.Error("TotalMessages inconsistent")
	}
	if got := len(plan.CellsOf(l8)); got != 3 {
		t.Errorf("cells = %d, want 3", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid after adjustment: %v", err)
	}
}

func TestSetLinkDemandGatewayRepack(t *testing.T) {
	// A large increase on a layer-1 link exceeds the gateway's layer-1
	// partition and forces a root-level repack.
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	l2 := topology.Link{Child: 2, Direction: topology.Uplink}
	adj, err := plan.SetLinkDemand(l2, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CasePartitionUpdate {
		t.Fatalf("case = %v, want partition-update", adj.Case)
	}
	if got := len(plan.CellsOf(l2)); got != 20 {
		t.Errorf("cells = %d, want 20", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid after gateway repack: %v", err)
	}
}

func TestSetLinkDemandRejected(t *testing.T) {
	tree := topology.Fig1()
	tiny := schedule.Slotframe{Slots: 50, Channels: 3, DataSlots: 40, SlotDuration: time.Millisecond}
	plan := planFor(t, tree, 1, tiny)
	l := topology.Link{Child: 8, Direction: topology.Uplink}
	before := plan.Demand(l)
	adj, err := plan.SetLinkDemand(l, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CaseRejected {
		t.Fatalf("case = %v, want rejected", adj.Case)
	}
	if plan.Demand(l) != before {
		t.Errorf("demand not rolled back: %d, want %d", plan.Demand(l), before)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid after rejection: %v", err)
	}
}

func TestSetLinkDemandErrors(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	if _, err := plan.SetLinkDemand(topology.Link{Child: 99, Direction: topology.Uplink}, 1, 1); err == nil {
		t.Error("unknown link accepted")
	}
	if _, err := plan.SetLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, -1, 1); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestSetLinkDemandDownlink(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	l := topology.Link{Child: 10, Direction: topology.Downlink}
	adj, err := plan.SetLinkDemand(l, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case == CaseRejected {
		t.Fatal("downlink increase rejected")
	}
	if got := len(plan.CellsOf(l)); got != 4 {
		t.Errorf("cells = %d, want 4", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Uplink allocation of the same node must be untouched.
	ul := topology.Link{Child: 10, Direction: topology.Uplink}
	if got := len(plan.CellsOf(ul)); got != 1 {
		t.Errorf("uplink cells = %d, want 1", got)
	}
}

func TestSetLinkDemandFromZero(t *testing.T) {
	// A node whose subtree had no demand at some layer acquires demand.
	tree := topology.New()
	for _, e := range [][2]topology.NodeID{{1, 0}, {2, 1}, {3, 1}} {
		if err := tree.AddNode(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	tasks := traffic.NewSet()
	// Only node 2 has traffic initially.
	if err := tasks.Add(traffic.Task{ID: 1, Source: 2, Actuator: 2, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tree, testFrame(), demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3's uplink previously had zero demand.
	l := topology.Link{Child: 3, Direction: topology.Uplink}
	adj, err := plan.SetLinkDemand(l, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case == CaseRejected {
		t.Fatal("increase from zero rejected")
	}
	if got := len(plan.CellsOf(l)); got != 2 {
		t.Errorf("cells = %d, want 2", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustmentCostGrowsWithScarcity(t *testing.T) {
	// With a packed slotframe, deep increases must climb multiple layers.
	tree := topology.New()
	var prev topology.NodeID
	for i := topology.NodeID(1); i <= 5; i++ {
		if err := tree.AddNode(i, prev); err != nil {
			t.Fatal(err)
		}
		prev = i
	}
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tree, testFrame(), demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := topology.Link{Child: 5, Direction: topology.Uplink}
	adj, err := plan.SetLinkDemand(l, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != CasePartitionUpdate {
		t.Fatalf("case = %v", adj.Case)
	}
	if adj.LayersClimbed < 1 {
		t.Errorf("climbed %d layers, want >= 1", adj.LayersClimbed)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialAdjustmentsKeepInvariants(t *testing.T) {
	// A stress run: many successive increases and decreases; every step the
	// plan must remain collision-free and demand-complete.
	tree := topology.Testbed50()
	frame := schedule.Slotframe{Slots: 500, Channels: 16, DataSlots: 450, SlotDuration: 10 * time.Millisecond}
	plan := planFor(t, tree, 1, frame)
	rng := rand.New(rand.NewSource(11))
	nodes := tree.Nodes()
	for step := 0; step < 60; step++ {
		id := nodes[1+rng.Intn(len(nodes)-1)]
		dir := topology.Directions()[rng.Intn(2)]
		l := topology.Link{Child: id, Direction: dir}
		delta := rng.Intn(3) - 1 // -1, 0, +1
		target := plan.Demand(l) + delta
		if target < 0 {
			target = 0
		}
		adj, err := plan.SetLinkDemand(l, target, float64(target))
		if err != nil {
			t.Fatalf("step %d (%v -> %d): %v", step, l, target, err)
		}
		if adj.Case == CaseRejected {
			continue
		}
		if got := len(plan.CellsOf(l)); got != target {
			t.Fatalf("step %d: cells = %d, want %d", step, got, target)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("step %d: invariants broken: %v", step, err)
		}
	}
}

func TestAdjustmentPropertyInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 12 + rng.Intn(20), Layers: 3}, rng)
		if err != nil {
			return false
		}
		tasks, err := traffic.UniformEcho(tree, 1)
		if err != nil {
			return false
		}
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			return false
		}
		frame := schedule.Slotframe{Slots: 500, Channels: 16, DataSlots: 460, SlotDuration: 10 * time.Millisecond}
		plan, err := NewPlan(tree, frame, demand, Options{})
		if err != nil {
			return false
		}
		nodes := tree.Nodes()
		for i := 0; i < 8; i++ {
			id := nodes[1+rng.Intn(len(nodes)-1)]
			l := topology.Link{Child: id, Direction: topology.Directions()[rng.Intn(2)]}
			target := rng.Intn(5)
			adj, err := plan.SetLinkDemand(l, target, float64(target))
			if err != nil {
				return false
			}
			if adj.Case == CaseRejected {
				continue
			}
			if len(plan.CellsOf(l)) != target {
				return false
			}
		}
		return plan.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAdjustPlacementsDirect(t *testing.T) {
	// Three [2,1] siblings in a 8x2 parent; target grows to [4,1]: fits in
	// free space without moving siblings.
	items := []layoutItem{
		{comp: Component{Slots: 2, Channels: 1}, off: Offset{Slot: 0, Channel: 0}, present: true},
		{comp: Component{Slots: 2, Channels: 1}, off: Offset{Slot: 2, Channel: 0}, present: true},
		{comp: Component{Slots: 4, Channels: 1}, off: Offset{Slot: 4, Channel: 0}, present: true},
	}
	offsets, moved, ok := adjustPlacements(8, 2, items, 2)
	if !ok {
		t.Fatal("feasible adjustment rejected")
	}
	if len(moved) != 1 || moved[0] != 2 {
		t.Errorf("moved = %v, want only the target", moved)
	}
	if offsets[0] != items[0].off || offsets[1] != items[1].off {
		t.Error("unmoved siblings repositioned")
	}
	// Grow beyond capacity: infeasible.
	items[2].comp = Component{Slots: 20, Channels: 1}
	if _, _, ok := adjustPlacements(8, 2, items, 2); ok {
		t.Error("infeasible adjustment accepted")
	}
	// Shrink to empty: nothing moves.
	items[2].comp = Component{}
	offsets, moved, ok = adjustPlacements(8, 2, items, 2)
	if !ok || len(moved) != 0 {
		t.Errorf("empty target: moved=%v ok=%v", moved, ok)
	}
	_ = offsets
	// Bad inputs.
	if _, _, ok := adjustPlacements(0, 2, items, 0); ok {
		t.Error("zero width accepted")
	}
	if _, _, ok := adjustPlacements(8, 2, items, 9); ok {
		t.Error("out-of-range target accepted")
	}
}

func TestAdjustPlacementsEvictsNeighboursFirst(t *testing.T) {
	// Parent 10x1. Layout: [A:0-3][B:4-5][C:6-9]. B grows to 5 slots: the
	// only arrangement moves at least one sibling; the heuristic should
	// find one (full row repack at worst).
	items := []layoutItem{
		{comp: Component{Slots: 4, Channels: 1}, off: Offset{Slot: 0, Channel: 0}, present: true}, // A
		{comp: Component{Slots: 4, Channels: 1}, off: Offset{Slot: 6, Channel: 0}, present: true}, // C
		{comp: Component{Slots: 5, Channels: 1}, off: Offset{Slot: 4, Channel: 0}, present: true}, // B (target)
	}
	offsets, moved, ok := adjustPlacements(13, 1, items, 2)
	if !ok {
		t.Fatal("feasible adjustment rejected")
	}
	// Verify no overlap in the result.
	type span struct{ lo, hi int }
	var spans []span
	for i, it := range items {
		c := it.comp
		spans = append(spans, span{offsets[i].Slot, offsets[i].Slot + c.Slots})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("overlap after adjustment: %v", spans)
			}
		}
	}
	if len(moved) == 0 {
		t.Error("target not reported as moved")
	}
}
