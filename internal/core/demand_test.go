package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// TestPlanDemandMatchesMapModel runs seeded scripts of SetLinkDemand raises,
// releases and raises too large to host (rejected and rolled back), plus
// Reparent moves, on random trees against a plain map of each link's
// demand. After every step Plan.Demand must equal the map on every link of
// the tree, and read 0 off it, and the plan must stay valid.
func TestPlanDemandMatchesMapModel(t *testing.T) {
	frame := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 380, SlotDuration: 10 * time.Millisecond}
	huge := frame.DataSlots*frame.Channels + 1
	rejected, moved := 0, 0
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 8 + rng.Intn(20), Layers: 2 + rng.Intn(3)}, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Echo tasks on about half the nodes, so some subtrees carry no
		// task and a moved node's own link can hold demand the new
		// routing does not list.
		tasks := traffic.NewSet()
		for _, id := range tree.Nodes()[1:] {
			if rng.Intn(2) == 0 {
				rate := []float64{1, 1.5, 2}[rng.Intn(3)]
				if err := tasks.Add(traffic.Task{ID: traffic.TaskID(id), Source: id, Actuator: id, Rate: rate}); err != nil {
					t.Fatal(err)
				}
			}
		}
		model := make(map[topology.Link]int)
		load := func(d *traffic.Demand) {
			clear(model)
			for _, l := range d.Links() {
				model[l] = d.Cells(l)
			}
		}
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlan(tree, frame, demand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		load(demand)
		agree := func(step string) {
			t.Helper()
			for _, id := range tree.Nodes() {
				for _, dir := range topology.Directions() {
					l := topology.Link{Child: id, Direction: dir}
					if got := plan.Demand(l); got != model[l] {
						t.Fatalf("seed %d %s: Demand(%v) = %d, model %d", seed, step, l, got, model[l])
					}
				}
			}
			if got := plan.Demand(topology.Link{Child: 999, Direction: topology.Uplink}); got != 0 {
				t.Fatalf("seed %d %s: Demand of a link outside the tree = %d", seed, step, got)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, step, err)
			}
		}
		agree("NewPlan")
		for op := 0; op < 40; op++ {
			nodes := tree.Nodes()
			node := nodes[1+rng.Intn(len(nodes)-1)]
			l := topology.Link{Child: node, Direction: topology.Directions()[rng.Intn(2)]}
			cur := plan.Demand(l)
			var step string
			switch r := rng.Intn(10); {
			case r < 6:
				cells, oversized := cur+1+rng.Intn(3), r >= 4
				step = "raise"
				if oversized {
					cells, step = huge, "oversized raise"
				}
				adj, err := plan.SetLinkDemand(l, cells, float64(cells))
				if err != nil {
					t.Fatalf("seed %d op %d %s of %v: %v", seed, op, step, l, err)
				}
				switch {
				case adj.Case == CaseRejected:
					rejected++
				case oversized:
					t.Fatalf("seed %d op %d: %d cells on %v were hosted", seed, op, cells, l)
				default:
					model[l] = cells
				}
			case r < 8:
				cells := rng.Intn(cur + 1)
				step = "release"
				if _, err := plan.SetLinkDemand(l, cells, 1); err != nil {
					t.Fatalf("seed %d op %d release of %v: %v", seed, op, l, err)
				}
				model[l] = cells
			default:
				step = "Reparent"
				target := nodes[rng.Intn(len(nodes))]
				sub, err := tree.Subtree(node)
				if err != nil {
					t.Fatal(err)
				}
				if parent, _ := tree.Parent(node); target == parent || slices.Contains(sub, target) {
					continue
				}
				clone := tree.Clone()
				if err := clone.Reparent(node, target); err != nil {
					t.Fatal(err)
				}
				nd, err := traffic.Compute(clone, tasks)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := plan.Reparent(node, target, nd); err != nil {
					if !errors.Is(err, ErrReparentFailed) {
						t.Fatalf("seed %d op %d: moving %d under %d: %v", seed, op, node, target, err)
					}
					// Partially migrated: rebuild, as a deployment would.
					if plan, err = NewPlan(tree, frame, nd, Options{}); err != nil {
						t.Fatalf("seed %d op %d: rebuild: %v", seed, op, err)
					}
					load(nd)
					break
				}
				moved++
				// Links the new routing lists take its demand; the rest keep theirs.
				for _, l := range nd.Links() {
					model[l] = nd.Cells(l)
				}
			}
			agree(step)
		}
	}
	if rejected == 0 || moved == 0 {
		t.Fatalf("the scripts rejected %d raises and moved %d subtrees: both paths must run", rejected, moved)
	}
}
