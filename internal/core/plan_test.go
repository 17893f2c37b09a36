package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func testFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 199, Channels: 16, DataSlots: 159, SlotDuration: 10 * time.Millisecond}
}

func planFor(t *testing.T, tree *topology.Tree, rate float64, frame schedule.Slotframe) *Plan {
	t.Helper()
	tasks, err := traffic.UniformEcho(tree, rate)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tree, frame, demand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestNewPlanFig1(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	// The gateway's uplink own-layer component covers its three child links,
	// whose demands are the subtree sizes 5, 1 and 5 -> [11, 1].
	iface, ok := plan.InterfaceOf(topology.GatewayID, topology.Uplink)
	if !ok {
		t.Fatal("gateway interface missing")
	}
	own, _ := iface.Component(1)
	if own.Slots != 11 || own.Channels != 1 {
		t.Errorf("gateway layer-1 component = %v, want [11,1]", own)
	}
	// Every link with demand must hold exactly its demand in cells.
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		for _, dir := range topology.Directions() {
			l := topology.Link{Child: id, Direction: dir}
			if got, want := len(plan.CellsOf(l)), plan.Demand(l); got != want {
				t.Errorf("link %v: %d cells, want %d", l, got, want)
			}
		}
	}
}

func TestNewPlanScheduleCollisionFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *topology.Tree
	}{
		{"Fig1", topology.Fig1()},
		{"Testbed50", topology.Testbed50()},
		{"Deep81", topology.Deep81()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
			plan := planFor(t, tc.tree, 1, frame)
			s, err := plan.BuildSchedule()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(tc.tree); err != nil {
				t.Fatalf("schedule has conflicts: %v", err)
			}
			if len(plan.Overflow) != 0 {
				t.Errorf("unexpected overflow: %v", plan.Overflow)
			}
			if err := plan.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNewPlanPartitionHierarchy(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	// Node 1's layer-3 partition must contain node 5's layer-3 partition
	// (node 5 is node 1's only non-leaf child).
	p1, ok := plan.Partition(1, 3, topology.Uplink)
	if !ok {
		t.Fatal("node 1 layer-3 partition missing")
	}
	p5, ok := plan.Partition(5, 3, topology.Uplink)
	if !ok {
		t.Fatal("node 5 layer-3 partition missing")
	}
	if !p1.ContainsRegion(p5) {
		t.Errorf("child partition %v outside parent %v", p5, p1)
	}
	// Partitions of different subtrees at the same layer are disjoint
	// (resource isolation, §IV-C).
	p3, ok := plan.Partition(3, 3, topology.Uplink)
	if !ok {
		t.Fatal("node 3 layer-3 partition missing")
	}
	if p1.Overlaps(p3) {
		t.Errorf("sibling subtree partitions overlap: %v vs %v", p1, p3)
	}
}

func TestNewPlanCompliantOrdering(t *testing.T) {
	// Uplink super-partition: deeper layers first; downlink after uplink,
	// shallower layers first (§IV-C).
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	up3, _ := plan.Partition(topology.GatewayID, 3, topology.Uplink)
	up2, _ := plan.Partition(topology.GatewayID, 2, topology.Uplink)
	up1, _ := plan.Partition(topology.GatewayID, 1, topology.Uplink)
	down1, _ := plan.Partition(topology.GatewayID, 1, topology.Downlink)
	down3, _ := plan.Partition(topology.GatewayID, 3, topology.Downlink)
	if !(up3.Slot < up2.Slot && up2.Slot < up1.Slot) {
		t.Errorf("uplink layer order wrong: l3@%d l2@%d l1@%d", up3.Slot, up2.Slot, up1.Slot)
	}
	if up1.Slot+up1.Slots > down1.Slot {
		t.Errorf("downlink super-partition must follow uplink: up1 ends %d, down1 starts %d",
			up1.Slot+up1.Slots, down1.Slot)
	}
	if !(down1.Slot < down3.Slot) {
		t.Errorf("downlink layer order wrong: l1@%d l3@%d", down1.Slot, down3.Slot)
	}
}

func TestNewPlanInfeasibleStrict(t *testing.T) {
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 4) // 4 pkts/slotframe everywhere
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	tiny := schedule.Slotframe{Slots: 60, Channels: 2, DataSlots: 50, SlotDuration: 10 * time.Millisecond}
	if _, err := NewPlan(tree, tiny, demand, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// Best effort succeeds and reports overflow.
	plan, err := NewPlan(tree, tiny, demand, Options{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Overflow) == 0 {
		t.Error("best-effort plan should report overflow links")
	}
	// The placed portion must still be conflict-free.
	s, err := plan.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tree); err != nil {
		t.Errorf("placed portion has conflicts: %v", err)
	}
}

func TestNewPlanStaticStats(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	// Non-leaf non-gateway nodes: 1, 3, 5, 7 -> 4 interface reports and 4
	// partition grants.
	if plan.Static.InterfaceMessages != 4 {
		t.Errorf("interface messages = %d, want 4", plan.Static.InterfaceMessages)
	}
	if plan.Static.PartitionMessages != 4 {
		t.Errorf("partition messages = %d, want 4", plan.Static.PartitionMessages)
	}
	// Every link with demand gets one schedule notification per direction:
	// 11 links x 2.
	if plan.Static.ScheduleMessages != 22 {
		t.Errorf("schedule messages = %d, want 22", plan.Static.ScheduleMessages)
	}
	if plan.Static.Total() != 30 {
		t.Errorf("total = %d, want 30", plan.Static.Total())
	}
}

func TestNewPlanValidatesInputs(t *testing.T) {
	tree := topology.Fig1()
	tasks, _ := traffic.UniformEcho(tree, 1)
	demand, _ := traffic.Compute(tree, tasks)
	if _, err := NewPlan(tree, schedule.Slotframe{}, demand, Options{}); err == nil {
		t.Error("invalid frame accepted")
	}
	// A link whose child is the gateway or not in the tree has no
	// partition to serve it: both constructors reject it, from either map.
	for _, l := range []topology.Link{
		{Child: topology.GatewayID, Direction: topology.Uplink},
		{Child: 99, Direction: topology.Downlink},
	} {
		cells := map[topology.Link]int{{Child: 8, Direction: topology.Uplink}: 1, l: 1}
		if _, err := NewPlanFromLinkDemand(tree, testFrame(), cells, nil, Options{}); err == nil {
			t.Errorf("cells for %v accepted", l)
		}
		if _, err := NewPlanFromLinkDemand(tree, testFrame(), nil, map[topology.Link]float64{l: 1}, Options{}); err == nil {
			t.Errorf("top rate for %v accepted", l)
		}
		if _, err := NewPlan(tree, testFrame(), traffic.FromCells(cells), Options{}); err == nil {
			t.Errorf("demand on %v accepted", l)
		}
	}
}

func TestPlanPartitionsListing(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	infos := plan.Partitions()
	if len(infos) == 0 {
		t.Fatal("no partitions listed")
	}
	// Deterministic order.
	for i := 1; i < len(infos); i++ {
		a, b := infos[i-1], infos[i]
		if a.Direction > b.Direction {
			t.Fatal("partitions not sorted by direction")
		}
	}
	// Gateway partitions must exist for layers 1..3 uplink.
	found := 0
	for _, info := range infos {
		if info.Node == topology.GatewayID && info.Direction == topology.Uplink {
			found++
		}
	}
	if found != 3 {
		t.Errorf("gateway uplink partitions = %d, want 3", found)
	}
}

func TestPlanQueriesUnknownNode(t *testing.T) {
	tree := topology.Fig1()
	plan := planFor(t, tree, 1, testFrame())
	if _, ok := plan.Partition(99, 1, topology.Uplink); ok {
		t.Error("partition for unknown node")
	}
	if _, ok := plan.InterfaceOf(99, topology.Uplink); ok {
		t.Error("interface for unknown node")
	}
	if cells := plan.CellsOf(topology.Link{Child: 99, Direction: topology.Uplink}); cells != nil {
		t.Error("cells for unknown link")
	}
	for _, l := range []topology.Link{{Child: 99, Direction: topology.Uplink}, {Child: topology.GatewayID, Direction: topology.Downlink}} {
		if d := plan.Demand(l); d != 0 {
			t.Errorf("Demand(%v) = %d for a link outside the tree", l, d)
		}
	}
}

func TestPlanPropertyRandomTopologies(t *testing.T) {
	// For random feasible networks, the plan's schedule is always
	// collision-free and demand-complete — the paper's headline invariant.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 10 + rng.Intn(30), Layers: 2 + rng.Intn(4)}, rng)
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
		frame := schedule.Slotframe{Slots: 600, Channels: 16, DataSlots: 560, SlotDuration: 10 * time.Millisecond}
		plan, err := NewPlan(tree, frame, demand, Options{})
		if err != nil {
			return false
		}
		if plan.Validate() != nil {
			return false
		}
		for _, l := range demand.Links() {
			if len(plan.CellsOf(l)) != demand.Cells(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAllocateRootStrictAndBestEffort(t *testing.T) {
	up := Interface{Owner: 0, FirstLayer: 1, Comps: []Component{{Slots: 30, Channels: 1}, {Slots: 20, Channels: 4}}}
	down := Interface{Owner: 0, FirstLayer: 1, Comps: []Component{{Slots: 30, Channels: 1}}}
	frame := schedule.Slotframe{Slots: 100, Channels: 4, DataSlots: 90, SlotDuration: time.Millisecond}
	alloc, err := AllocateRoot(up, down, frame, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Partitions) != 3 || len(alloc.Overflow) != 0 {
		t.Fatalf("alloc = %+v", alloc)
	}
	// Deeper uplink layer placed first.
	l2 := alloc.Partitions[DirLayer{Direction: topology.Uplink, Layer: 2}]
	l1 := alloc.Partitions[DirLayer{Direction: topology.Uplink, Layer: 1}]
	if l2.Slot != 0 || l1.Slot != 20 {
		t.Errorf("uplink order: l2@%d l1@%d", l2.Slot, l1.Slot)
	}
	// Too-small data sub-frame: strict fails, best effort overflows.
	small := schedule.Slotframe{Slots: 100, Channels: 4, DataSlots: 40, SlotDuration: time.Millisecond}
	if _, err := AllocateRoot(up, down, small, false, 0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	be, err := AllocateRoot(up, down, small, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(be.Overflow) == 0 {
		t.Error("best effort should report overflow")
	}
	if _, err := AllocateRoot(up, down, schedule.Slotframe{}, false, 0); err == nil {
		t.Error("invalid frame accepted")
	}
}

func TestSplitPartitionErrors(t *testing.T) {
	parent := schedule.Region{Slot: 10, Channel: 2, Slots: 6, Channels: 2}
	children := []topology.NodeID{5, 7}
	layout := Layout{{Slot: 0, Channel: 0, Placed: true}}
	comps := []Component{{Slots: 3, Channels: 1}, {}}
	split := make([]schedule.Region, len(children))
	if err := SplitPartition(parent, children, layout, comps, split); err != nil {
		t.Fatal(err)
	}
	if r := split[0]; r.Slot != 10 || r.Channel != 2 || r.Slots != 3 {
		t.Errorf("split region = %v", r)
	}
	// An absent slot gets no region.
	if split[1] != (schedule.Region{}) {
		t.Errorf("absent child split into %v", split[1])
	}
	// Layout places a slot past the components (and the children): an
	// error, not an index panic.
	long := Layout{{Slot: 0, Channel: 0, Placed: true}, {}, {Slot: 3, Channel: 0, Placed: true}}
	if err := SplitPartition(parent, children, long, comps, split); err == nil || !strings.Contains(err.Error(), "slot 2") {
		t.Errorf("layout past the components: err = %v", err)
	}
	if err := SplitPartition(parent, children, Layout{{}, {Placed: true}}, comps[:1], split); err == nil {
		t.Error("missing component accepted")
	}
	// Child escaping parent.
	bad := []Component{{Slots: 9, Channels: 1}, {}}
	err := SplitPartition(parent, children, layout, bad, split)
	if err == nil || !strings.Contains(err.Error(), "child 5 partition") {
		t.Errorf("escaping child: err = %v", err)
	}
}

func TestAssignCellsRMOrder(t *testing.T) {
	p := schedule.Region{Slot: 10, Channel: 0, Slots: 6, Channels: 1}
	demands := []LinkDemand{
		{Link: topology.Link{Child: 1, Direction: topology.Uplink}, Cells: 2, TopRate: 1},
		{Link: topology.Link{Child: 2, Direction: topology.Uplink}, Cells: 3, TopRate: 4},
	}
	var s AssignScratch
	runs := make([]Run, len(demands))
	if err := AssignCells(p, demands, runs, &s); err != nil {
		t.Fatal(err)
	}
	// Higher-rate link (child 2) gets the earliest cells.
	c1, c2 := runs[0].AppendCells(nil, p), runs[1].AppendCells(nil, p)
	if len(c2) != 3 || len(c1) != 2 {
		t.Fatalf("allocations: c2=%d c1=%d", len(c2), len(c1))
	}
	if c2[0].Slot != 10 || c1[0].Slot != 13 {
		t.Errorf("RM order wrong: c2 starts %d, c1 starts %d", c2[0].Slot, c1[0].Slot)
	}
	// Overflow rejected.
	demands[0].Cells = 10
	if err := AssignCells(p, demands, runs, &s); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	// Negative demand rejected.
	if err := AssignCells(p, []LinkDemand{{Cells: -1}}, runs, &s); err == nil {
		t.Error("negative demand accepted")
	}
	// Zero-demand links get no cells.
	runs[0] = Run{Start: 4, Count: 1}
	err := AssignCells(p, []LinkDemand{{Link: topology.Link{Child: 3}, Cells: 0}}, runs[:1], &s)
	if err != nil || runs[0] != (Run{}) {
		t.Errorf("zero-demand assignment = %v, %v", runs[0], err)
	}
}
