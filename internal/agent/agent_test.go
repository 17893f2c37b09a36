package agent

import (
	"testing"
	"time"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

func testFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
}

// deployOnBus stands up a fleet over a virtual-time bus and runs the static
// phase to completion.
func deployOnBus(t *testing.T, tree *topology.Tree, rate float64, frame schedule.Slotframe) (*Fleet, *transport.Bus) {
	t.Helper()
	tasks, err := traffic.UniformEcho(tree, rate)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Deploy(tree, frame, demand, bus)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	return fleet, bus
}

func TestStaticPhaseMatchesCentralizedPlanner(t *testing.T) {
	// The distributed protocol must converge to exactly the schedule the
	// centralized planner computes: same inputs, same deterministic
	// algorithms, different execution.
	for _, tc := range []struct {
		name string
		tree *topology.Tree
	}{
		{"Fig1", topology.Fig1()},
		{"Testbed50", topology.Testbed50()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := testFrame()
			fleet, _ := deployOnBus(t, tc.tree, 1, frame)
			got, err := fleet.BuildSchedule()
			if err != nil {
				t.Fatal(err)
			}
			tasks, _ := traffic.UniformEcho(tc.tree, 1)
			demand, _ := traffic.Compute(tc.tree, tasks)
			plan, err := core.NewPlan(tc.tree, frame, demand, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.BuildSchedule()
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalCells() != want.TotalCells() {
				t.Fatalf("cells: distributed %d vs centralized %d", got.TotalCells(), want.TotalCells())
			}
			for _, l := range want.Links() {
				a, b := got.Cells(l), want.Cells(l)
				if len(a) != len(b) {
					t.Fatalf("link %v: %d vs %d cells", l, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("link %v cell %d: %v vs %v", l, i, a[i], b[i])
					}
				}
			}
		})
	}
}

func TestStaticPhaseScheduleValid(t *testing.T) {
	tree := topology.Testbed50()
	fleet, bus := deployOnBus(t, tree, 1, testFrame())
	if err := fleet.Validate(); err != nil {
		t.Fatalf("distributed schedule invalid: %v", err)
	}
	if fleet.Rejections() != 0 {
		t.Errorf("rejections = %d", fleet.Rejections())
	}
	// Static phase message accounting: every non-leaf non-gateway node sends
	// one POST intf and receives one POST part.
	nonLeafNonGateway := 0
	for _, id := range tree.NonLeaves() {
		if id != topology.GatewayID {
			nonLeafNonGateway++
		}
	}
	if got := bus.Count(coap.POST, "intf"); got != nonLeafNonGateway {
		t.Errorf("POST intf = %d, want %d", got, nonLeafNonGateway)
	}
	if got := bus.Count(coap.POST, "part"); got != nonLeafNonGateway {
		t.Errorf("POST part = %d, want %d", got, nonLeafNonGateway)
	}
	// Every node with demand hears its cells: 49 links x 2 directions.
	if got := bus.Count(coap.POST, "sched"); got != 98 {
		t.Errorf("POST sched = %d, want 98", got)
	}
}

func TestChildrenLearnTheirCells(t *testing.T) {
	tree := topology.Fig1()
	fleet, _ := deployOnBus(t, tree, 1, testFrame())
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		n, err := fleet.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range topology.Directions() {
			if len(n.MyCells(d)) == 0 {
				t.Errorf("node %d heard no %s cells", id, d)
			}
		}
	}
	if _, err := fleet.Node(99); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestDynamicLocalAdjustment(t *testing.T) {
	tree := topology.Fig1()
	frame := testFrame()
	fleet, bus := deployOnBus(t, tree, 1, frame)
	// Free slack under node 5, then grow the sibling: local only.
	if err := fleet.SetLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	bus.ResetCounters()
	if err := fleet.SetLinkDemand(topology.Link{Child: 9, Direction: topology.Uplink}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.Count(coap.PUT, "intf") != 0 || bus.Count(coap.PUT, "part") != 0 {
		t.Errorf("local adjustment sent %d PUT /intf and %d PUT /part", bus.Count(coap.PUT, "intf"), bus.Count(coap.PUT, "part"))
	}
	if bus.Count(coap.POST, "sched") == 0 {
		t.Error("no schedule notifications after local adjustment")
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicEscalatedAdjustment(t *testing.T) {
	tree := topology.Fig1()
	frame := testFrame()
	fleet, bus := deployOnBus(t, tree, 1, frame)
	bus.ResetCounters()
	start := bus.Now()
	// Tripling link 8 overflows node 5's exactly-sized partition.
	if err := fleet.SetLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, 3, 3); err != nil {
		t.Fatal(err)
	}
	end, err := bus.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bus.Count(coap.PUT, "intf") == 0 {
		t.Error("no adjustment request sent")
	}
	if bus.Count(coap.PUT, "part") == 0 {
		t.Error("no partition update sent")
	}
	if end <= start {
		t.Error("adjustment consumed no virtual time")
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("invalid after adjustment: %v", err)
	}
	// The grown link now holds 3 cells.
	n, _ := fleet.Node(5)
	if got := len(n.Assignment(topology.Uplink)[8]); got != 3 {
		t.Errorf("link 8 cells = %d, want 3", got)
	}
	if fleet.Rejections() != 0 {
		t.Errorf("rejections = %d", fleet.Rejections())
	}
}

func TestDynamicGatewayRepack(t *testing.T) {
	tree := topology.Fig1()
	fleet, bus := deployOnBus(t, tree, 1, testFrame())
	if err := fleet.SetLinkDemand(topology.Link{Child: 2, Direction: topology.Uplink}, 20, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("invalid after gateway repack: %v", err)
	}
	gw, _ := fleet.Node(topology.GatewayID)
	if got := len(gw.Assignment(topology.Uplink)[2]); got != 20 {
		t.Errorf("link 2 cells = %d, want 20", got)
	}
}

func TestDynamicRejection(t *testing.T) {
	tree := topology.Fig1()
	small := schedule.Slotframe{Slots: 50, Channels: 3, DataSlots: 40, SlotDuration: time.Millisecond}
	fleet, bus := deployOnBus(t, tree, 1, small)
	if err := fleet.SetLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, 500, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if fleet.Rejections() == 0 {
		t.Error("impossible increase not rejected")
	}
}

func TestSetChildDemandErrors(t *testing.T) {
	tree := topology.Fig1()
	fleet, _ := deployOnBus(t, tree, 1, testFrame())
	n, _ := fleet.Node(5)
	if err := n.SetChildDemand(99, topology.Uplink, 1, 1); err == nil {
		t.Error("unknown child accepted")
	}
	if err := n.SetChildDemand(8, topology.Uplink, -1, 1); err == nil {
		t.Error("negative demand accepted")
	}
	if err := fleet.SetLinkDemand(topology.Link{Child: 99}, 1, 1); err == nil {
		t.Error("unknown link accepted")
	}
}

func TestAgentIgnoresMalformedMessages(t *testing.T) {
	tree := topology.Fig1()
	fleet, _ := deployOnBus(t, tree, 1, testFrame())
	n, _ := fleet.Node(5)
	before, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	garbage := coap.Message{Type: coap.NonConfirmable, Code: coap.PUT, MessageID: 1, Options: coap.PathOptions("intf")}
	garbage.Payload = []byte{0x01}
	n.Handle(1, garbage)
	unknown := coap.Message{Type: coap.NonConfirmable, Code: coap.GET, MessageID: 2, Options: coap.PathOptions("nosuch")}
	n.Handle(1, unknown)
	after, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalCells() != after.TotalCells() {
		t.Error("malformed message mutated state")
	}
}

func TestTestbed50AdjustmentOverBus(t *testing.T) {
	// The dynamic tests above run on Fig1; this is the 50-node testbed:
	// static phase plus one escalated adjustment.
	fleet, bus := deployOnBus(t, topology.Testbed50(), 1, testFrame())
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet schedule invalid: %v", err)
	}
	bus.ResetCounters()
	if err := fleet.SetLinkDemand(topology.Link{Child: 15, Direction: topology.Uplink}, 3, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after adjustment: %v", err)
	}
	if bus.Delivered() == 0 {
		t.Error("adjustment delivered no messages")
	}
}

func TestDeployValidation(t *testing.T) {
	tree := topology.Fig1()
	tasks, _ := traffic.UniformEcho(tree, 1)
	demand, _ := traffic.Compute(tree, tasks)
	bus, err := transport.NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(tree, schedule.Slotframe{}, demand, bus); err == nil {
		t.Error("invalid frame accepted")
	}
	if _, err := transport.NewBus(0, 1); err == nil {
		t.Error("invalid bus accepted")
	}
}

// reparentedDemand computes the post-move demand over a cloned tree.
func reparentedDemand(t *testing.T, tree *topology.Tree, node, newParent topology.NodeID) *traffic.Demand {
	t.Helper()
	clone := tree.Clone()
	if err := clone.Reparent(node, newParent); err != nil {
		t.Fatal(err)
	}
	tasks, err := traffic.UniformEcho(clone, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := traffic.Compute(clone, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFleetReparentLeaf(t *testing.T) {
	tree := topology.Fig1()
	fleet, bus := deployOnBus(t, tree, 1, testFrame())
	nd := reparentedDemand(t, tree, 8, 7)
	bus.ResetCounters()
	if err := fleet.Reparent(8, 7, nd); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.Count(coap.DELETE, "intf") != 1 {
		t.Errorf("leave messages = %d, want 1", bus.Count(coap.DELETE, "intf"))
	}
	if bus.Count(coap.POST, "intf") == 0 {
		t.Error("no join report sent")
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after leaf reparent: %v", err)
	}
	if fleet.Rejections() != 0 {
		t.Errorf("rejections = %d", fleet.Rejections())
	}
	// Demand-complete over the new routes.
	sched, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nd.Links() {
		if got := len(sched.Cells(l)); got != nd.Cells(l) {
			t.Errorf("link %v: %d cells, want %d", l, got, nd.Cells(l))
		}
	}
}

func TestFleetReparentSubtree(t *testing.T) {
	// Node 5 (children 8, 9) switches from parent 1 to parent 3, on agents.
	tree := topology.Fig1()
	frame := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
	fleet, bus := deployOnBus(t, tree, 1, frame)
	nd := reparentedDemand(t, tree, 5, 3)
	bus.ResetCounters()
	if err := fleet.Reparent(5, 3, nd); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after subtree reparent: %v", err)
	}
	if fleet.Rejections() != 0 {
		t.Errorf("rejections = %d", fleet.Rejections())
	}
	sched, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nd.Links() {
		if got := len(sched.Cells(l)); got != nd.Cells(l) {
			t.Errorf("link %v: %d cells, want %d", l, got, nd.Cells(l))
		}
	}
	// The new branch hosts the moved subtree's partitions.
	n5, _ := fleet.Node(5)
	p5, ok := n5.Partition(topology.Uplink, 3)
	if !ok {
		t.Fatal("moved subtree has no layer-3 partition")
	}
	n3, _ := fleet.Node(3)
	p3, ok := n3.Partition(topology.Uplink, 3)
	if !ok {
		t.Fatal("new parent has no layer-3 partition")
	}
	if !p3.ContainsRegion(p5) {
		t.Errorf("moved partition %v outside new ancestor %v", p5, p3)
	}
}

func TestFleetReparentDepthChange(t *testing.T) {
	// Node 5 moves under leaf 6: subtree deepens one layer; the former leaf
	// becomes a relay with its own partition.
	tree := topology.Fig1()
	frame := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
	fleet, bus := deployOnBus(t, tree, 1, frame)
	nd := reparentedDemand(t, tree, 5, 6)
	if err := fleet.Reparent(5, 6, nd); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after depth change: %v", err)
	}
	sched, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nd.Links() {
		if got := len(sched.Cells(l)); got != nd.Cells(l) {
			t.Errorf("link %v: %d cells, want %d", l, got, nd.Cells(l))
		}
	}
	n6, _ := fleet.Node(6)
	if got := len(n6.Assignment(topology.Uplink)); got == 0 {
		t.Error("former leaf has no uplink assignment for its new child")
	}
}

func TestFleetReparentValidation(t *testing.T) {
	tree := topology.Fig1()
	fleet, _ := deployOnBus(t, tree, 1, testFrame())
	nd := reparentedDemand(t, tree, 8, 7)
	if err := fleet.Reparent(8, 5, nd); err == nil {
		t.Error("no-op reparent accepted")
	}
	if err := fleet.Reparent(99, 5, nd); err == nil {
		t.Error("unknown node accepted")
	}
	if err := fleet.Reparent(8, 99, nd); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := fleet.Reparent(1, 8, nd); err == nil {
		t.Error("cycle accepted")
	}
}
