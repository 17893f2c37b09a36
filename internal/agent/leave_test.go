package agent_test

import (
	"testing"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// tapBus is a transport.Bus that records every delivery before the agent
// handles it, so a test can see who told whom what, and when.
type tapBus struct {
	*transport.Bus
	onDeliver func(from, to topology.NodeID, msg coap.Message)
}

func (b *tapBus) Register(id topology.NodeID, h transport.Handler) {
	b.Bus.Register(id, tapHandler{to: id, h: h, bus: b})
}

type tapHandler struct {
	to  topology.NodeID
	h   transport.Handler
	bus *tapBus
}

func (t tapHandler) Handle(from topology.NodeID, msg coap.Message) {
	if t.bus.onDeliver != nil {
		t.bus.onDeliver(from, t.to, msg)
	}
	t.h.Handle(from, msg)
}

func isRequest(msg coap.Message, code coap.Code, path string) bool {
	seg, _ := msg.PathSegment()
	return msg.Code == code && string(seg) == path
}

// TestFleetLeaveDuringEscalation: parent P escalates a layer at which
// sibling B holds a component, and B leaves before the grant arrives. The
// grant must commit a recomposition without B: P's committed components
// at that layer name only current children, and P never addresses B again.
func TestFleetLeaveDuringEscalation(t *testing.T) {
	// G(0) ─ P(1) ─ A(2) ─ 4, 5
	//              └ B(3) ─ 6, 7
	// A's and B's child links sit at layer 3, where P composes both.
	const (
		gw, p, a, b = topology.GatewayID, 1, 2, 3
		layer       = 3
	)
	tree := topology.New()
	for _, e := range [][2]topology.NodeID{{p, gw}, {a, p}, {b, p}, {4, a}, {5, a}, {6, b}, {7, b}} {
		if err := tree.AddNode(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	frame := integrationFrame()
	inner, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus := &tapBus{Bus: inner}
	fleet, err := agent.Deploy(tree, frame, demand, bus)
	if err != nil {
		t.Fatal(err)
	}
	fleet.BindVirtualTime(bus.Now) // stamp escalations, so PendingAdjustments sees them
	fleet.Start()
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if comps := agent.CommittedChildren(fleet, p, topology.Uplink, layer); len(comps) != 2 {
		t.Fatalf("static phase: P composes %v at layer %d, want A and B", comps, layer)
	}

	// Raise link 4 past A's exactly-sized layer-3 partition: A escalates to
	// P, whose layer-3 partition is exactly sized too, so P escalates to G.
	raised := topology.Link{Child: 4, Direction: topology.Uplink}
	const cells = 6
	var escalated, left bool
	bus.onDeliver = func(from, to topology.NodeID, msg coap.Message) {
		switch {
		case from == a && to == p && isRequest(msg, coap.PUT, "intf"):
			escalated = true
		case from == b && to == p && isRequest(msg, coap.DELETE, "intf"):
			left = true
		case from == gw && to == p && isRequest(msg, coap.PUT, "part") && !left:
			t.Fatal("G's grant reached P before B's leave: the race is not exercised")
		case from == p && to == b && left:
			seg, _ := msg.PathSegment()
			t.Errorf("P sent %v /%s to departed child B", msg.Code, seg)
		}
	}
	if err := fleet.SetLinkDemand(raised, cells, cells); err != nil {
		t.Fatal(err)
	}
	for !escalated && bus.Clock().Step() {
	}
	if !escalated {
		t.Fatal("A never escalated to P")
	}
	if got := fleet.PendingAdjustments(); got != 1 {
		t.Fatalf("PendingAdjustments = %d after P handled A's request, want 1 (P's layer-%d escalation)", got, layer)
	}

	// B re-homes under G while P's escalation is in flight; its DELETE
	// reaches P before G's grant does.
	moved := tree.Clone()
	if err := moved.Reparent(b, gw); err != nil {
		t.Fatal(err)
	}
	after := map[topology.Link]int{}
	movedTasks, err := traffic.UniformEcho(moved, 1)
	if err != nil {
		t.Fatal(err)
	}
	movedDemand, err := traffic.Compute(moved, movedTasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range movedDemand.Links() {
		after[l] = movedDemand.Cells(l)
	}
	after[raised] = cells
	if err := fleet.Reparent(b, gw, traffic.FromCells(after)); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if !left {
		t.Fatal("B's leave never reached P")
	}

	if comps := agent.CommittedChildren(fleet, p, topology.Uplink, layer); len(comps) != 1 || comps[0] != a {
		t.Errorf("P composes %v at layer %d after B left, want only A", comps, layer)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := invariant.CheckFleet(fleet, nil); err != nil {
		t.Fatal(err)
	}
	sched, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Cells(raised)); got != cells {
		t.Errorf("raised link holds %d cells, want %d", got, cells)
	}
}
