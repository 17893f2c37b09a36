package core_test

// External-package test: exercises the planner through its public API and
// re-validates the paper's partition invariants with internal/invariant
// after every dynamic adjustment. It lives outside package core because
// invariant imports core.

import (
	"testing"
	"time"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func integrationFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
}

func echoPlan(t *testing.T, tree *topology.Tree, rate float64) *core.Plan {
	t.Helper()
	tasks, err := traffic.UniformEcho(tree, rate)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(tree, integrationFrame(), demand, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPlanInvariantsThroughAdjustmentLifecycle(t *testing.T) {
	plan := echoPlan(t, topology.Testbed50(), 1)
	if err := invariant.CheckPlan(plan); err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	// Walk the plan through every adjustment case of §V — increases that
	// reschedule in place, increases that grow partitions, releases, and a
	// rejection — re-checking containment, disjointness and
	// collision-freedom after each step.
	steps := []struct {
		child topology.NodeID
		dir   topology.Direction
		cells int
	}{
		{10, topology.Uplink, 3},   // small increase
		{11, topology.Downlink, 6}, // partition growth
		{10, topology.Uplink, 1},   // release
		{12, topology.Uplink, 9},
		{12, topology.Uplink, 2},       // release again
		{13, topology.Downlink, 10000}, // infeasible: must be rejected and rolled back
		{14, topology.Uplink, 4},
	}
	for i, s := range steps {
		l := topology.Link{Child: s.child, Direction: s.dir}
		adj, err := plan.SetLinkDemand(l, s.cells, float64(s.cells))
		if err != nil {
			t.Fatalf("step %d (%v -> %d cells): %v", i, l, s.cells, err)
		}
		if s.cells == 10000 && adj.Case != core.CaseRejected {
			t.Fatalf("step %d: infeasible demand not rejected (case %v)", i, adj.Case)
		}
		if err := invariant.CheckPlan(plan); err != nil {
			t.Fatalf("invariants violated after step %d (%v -> %d cells, case %v): %v",
				i, l, s.cells, adj.Case, err)
		}
	}
}

func TestPlanInvariantsAfterReparent(t *testing.T) {
	tree := topology.Fig1()
	plan := echoPlan(t, tree, 1)
	// Recompute the echo demand for the post-move routing on a clone, as a
	// network management plane would.
	clone := tree.Clone()
	if err := clone.Reparent(8, 7); err != nil {
		t.Fatal(err)
	}
	tasks, err := traffic.UniformEcho(clone, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(clone, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Reparent(8, 7, demand); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckPlan(plan); err != nil {
		t.Fatalf("invariants violated after reparent: %v", err)
	}
}

// TestReparentAfterEscalation: an escalation below node 1 must leave node
// 1's recorded interface at the grown size, and a reparent of node 1 that
// follows must re-host its subtree cleanly. Tripling link 8 outgrows node
// 5's layer-3 partition, so node 1 recomposes its layer-3 component and the
// gateway grants it a larger partition; the interface node 1 reports at
// that layer must match the grant, or anything re-hosting the recorded
// interface would place a smaller component than the subtree holds. Then
// node 1 moves under node 3 with its whole subtree: the plan must stay
// invariant-clean with every link holding its demand.
func TestReparentAfterEscalation(t *testing.T) {
	tree := topology.Fig1()
	plan := echoPlan(t, tree, 1)
	const x, layer = topology.NodeID(1), 3
	comp := func() core.Component {
		t.Helper()
		iface, ok := plan.InterfaceOf(x, topology.Uplink)
		if !ok {
			t.Fatalf("node %d has no interface", x)
		}
		c, ok := iface.Component(layer)
		if !ok {
			t.Fatalf("node %d interface %v has no layer %d", x, iface, layer)
		}
		return c
	}
	before := comp()

	l8 := topology.Link{Child: 8, Direction: topology.Uplink}
	adj, err := plan.SetLinkDemand(l8, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Case != core.CasePartitionUpdate {
		t.Fatalf("tripling link 8: case %v, want a partition update", adj.Case)
	}
	grown := comp()
	part, ok := plan.Partition(x, layer, topology.Uplink)
	if !ok {
		t.Fatalf("node %d holds no layer-%d partition", x, layer)
	}
	if grown.Cells() <= before.Cells() || grown.Slots != part.Slots || grown.Channels != part.Channels {
		t.Fatalf("node %d layer-%d interface %+v (was %+v), granted partition %v: the escalation's growth is not recorded",
			x, layer, grown, before, part)
	}

	// The post-move echo demand, with link 8 keeping its raised demand.
	clone := tree.Clone()
	if err := clone.Reparent(x, 3); err != nil {
		t.Fatal(err)
	}
	tasks, err := traffic.UniformEcho(clone, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(clone, tasks)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[topology.Link]int)
	for _, l := range demand.Links() {
		cells[l] = demand.Cells(l)
	}
	cells[l8] = 3
	if _, err := plan.Reparent(x, 3, traffic.FromCells(cells)); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckPlan(plan); err != nil {
		t.Fatalf("invariants violated after reparent: %v", err)
	}
	for l, want := range cells {
		if got := len(plan.CellsOf(l)); got != want {
			t.Errorf("link %v: %d cells after reparent, want %d", l, got, want)
		}
	}
}
