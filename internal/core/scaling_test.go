package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// cost is what one operation allocates.
type cost struct{ allocs, bytes uint64 }

// near reports whether two costs agree within 1 % in both allocations and
// bytes, or within the runtime's own noise on a single run: the allocator's
// tiny blocks and map growth move it by up to a dozen small allocations.
// Anything sized by the fleet (a one-byte-per-node slice is 49 KB more at
// 50 000 nodes than at 1 000) is far outside both.
func (c cost) near(d cost) bool {
	within := func(a, b, floor uint64) bool { return max(a, b)-min(a, b) <= max(max(a, b)/100, floor) }
	return within(c.allocs, d.allocs, 16) && within(c.bytes, d.bytes, 1024)
}

// cheapestCosts measures op at both sizes the way testing.AllocsPerRun
// measures, with GOMAXPROCS(1) while measuring, and keeps the cheapest run
// per size. Each trial builds its state afresh with setup (untimed) and
// collects garbage first, so every run starts from the same cold pools.
// The runtime's counters are process-wide and can only overcount an op, so
// trials alternate between the sizes until the two cheapest runs are near,
// or maxTrials per size are spent.
func cheapestCosts(maxTrials int, sizes [2]int, setup func(nodes int) (op func())) [2]cost {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := [2]cost{{math.MaxUint64, math.MaxUint64}, {math.MaxUint64, math.MaxUint64}}
	for trial := 0; trial < maxTrials; trial++ {
		for i, n := range sizes {
			op := setup(n)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			best[i].allocs = min(best[i].allocs, after.Mallocs-before.Mallocs)
			best[i].bytes = min(best[i].bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if best[0].near(best[1]) {
			break
		}
	}
	return best
}

// scaleFleet is an 8-layer, fan-out-8 GenerateScale tree of 1 000 nodes
// with 32 echo tasks at depth 8 (the scale study's shape), grown to nodes
// by idle nodes: subtrees that carry no task, hung under the shallowest
// node none of whose descendants is a task source. Every size therefore
// holds the same demand on the same links, and an adjustment's work can
// differ between sizes only where it walks the idle part of the tree.
func scaleFleet(t *testing.T, nodes int) (*topology.Tree, *traffic.Set) {
	t.Helper()
	rng := vclock.NewStream(vclock.StreamScale, 101)
	tree, err := topology.GenerateScale(topology.GenSpec{Nodes: 1_000, Layers: 8, MaxChildren: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	deepest := tree.NodesAtDepth(8)
	tasks := traffic.NewSet()
	busy := make(map[topology.NodeID]bool)
	for id := traffic.TaskID(0); tasks.Len() < 32; id++ {
		src := deepest[rng.Intn(len(deepest))]
		if err := tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}); err != nil {
			t.Fatal(err)
		}
		path, err := tree.PathToGateway(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range path {
			busy[id] = true
		}
	}
	idle := []topology.NodeID{topology.None}
	for d := 1; idle[0] == topology.None; d++ {
		for _, id := range tree.NodesAtDepth(d) {
			if !busy[id] {
				idle[0] = id
				break
			}
		}
	}
	next := topology.NodeID(tree.Len())
	for len(idle) > 0 && tree.Len() < nodes {
		parent := idle[0]
		idle = idle[1:]
		if d, _ := tree.Depth(parent); d == 8 {
			continue
		}
		for k := 0; k < 16 && tree.Len() < nodes; k++ {
			if err := tree.AddNode(next, parent); err != nil {
				t.Fatal(err)
			}
			idle = append(idle, next)
			next++
		}
	}
	if tree.Len() != nodes {
		t.Fatalf("grew the tree to %d nodes, want %d", tree.Len(), nodes)
	}
	return tree, tasks
}

// scalePlan is the static plan of scaleFleet on a 997-slot frame, and
// the first task's uplink.
func scalePlan(t *testing.T, nodes int) (*Plan, topology.Link) {
	t.Helper()
	tree, tasks := scaleFleet(t, nodes)
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	frame := schedule.Slotframe{Slots: 997, Channels: 16, DataSlots: 960, SlotDuration: 10 * time.Millisecond}
	plan, err := NewPlan(tree, frame, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan, topology.Link{Child: tasks.Tasks()[0].Source, Direction: topology.Uplink}
}

// One dynamic adjustment (SetLinkDemand raising a task's uplink by one
// cell, which escalates) allocates the same at 1 000 and 50 000 nodes:
// nothing on the adjustment path is sized by the tree.
func TestAdjustCostIndependentOfTreeSize(t *testing.T) {
	if testing.Short() {
		t.Skip("plans a 50 000-node fleet")
	}
	if debugChecks {
		t.Skip("-tags harpdebug re-validates the whole plan after every adjustment")
	}
	sizes := [2]int{1_000, 50_000}
	costs := cheapestCosts(4, sizes, func(nodes int) func() {
		plan, l := scalePlan(t, nodes)
		cells := plan.Demand(l) + 1
		return func() {
			adj, err := plan.SetLinkDemand(l, cells, float64(cells))
			if err != nil {
				t.Fatal(err)
			}
			if adj.LayersClimbed == 0 {
				t.Fatal("the raise was absorbed locally: it must escalate to measure the adjustment path")
			}
		}
	})
	for i, n := range sizes {
		t.Logf("%d nodes: %d allocations, %d B per SetLinkDemand", n, costs[i].allocs, costs[i].bytes)
	}
	if !costs[0].near(costs[1]) {
		t.Errorf("SetLinkDemand costs %d allocations / %d B at %d nodes but %d / %d B at %d: its cost follows the tree",
			costs[0].allocs, costs[0].bytes, sizes[0], costs[1].allocs, costs[1].bytes, sizes[1])
	}
}
