package apas

import (
	"testing"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func bigFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 600, Channels: 16, DataSlots: 560, SlotDuration: 10 * time.Millisecond}
}

func managerFor(t *testing.T, tree *topology.Tree, rate float64) *Manager {
	t.Helper()
	tasks, err := traffic.UniformEcho(tree, rate)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tree, bigFrame(), demand)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAPaSInitialScheduleCollisionFree(t *testing.T) {
	tree := topology.Testbed50()
	m := managerFor(t, tree, 1)
	s, err := m.plan.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tree); err != nil {
		t.Fatalf("central schedule invalid: %v", err)
	}
}

func TestAPaSMessageCostFormula(t *testing.T) {
	// The paper derives 3l-1 packets for a requester at layer l.
	tree := topology.Deep81()
	m := managerFor(t, tree, 1)
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		depth, _ := tree.Depth(id)
		l := topology.Link{Child: id, Direction: topology.Uplink}
		rep, err := m.SetLinkDemand(l, m.Demand(l)+1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rejected {
			t.Fatalf("node %d rejected", id)
		}
		if rep.Messages != 3*depth-1 {
			t.Errorf("node %d (layer %d): messages = %d, want %d", id, depth, rep.Messages, 3*depth-1)
		}
		if rep.RequestHops != depth {
			t.Errorf("node %d: hops = %d, want %d", id, rep.RequestHops, depth)
		}
	}
}

func TestAPaSAppliesDemand(t *testing.T) {
	tree := topology.Fig1()
	m := managerFor(t, tree, 1)
	l := topology.Link{Child: 8, Direction: topology.Uplink}
	if _, err := m.SetLinkDemand(l, 4, 4); err != nil {
		t.Fatal(err)
	}
	if m.Demand(l) != 4 {
		t.Errorf("demand = %d, want 4", m.Demand(l))
	}
	s, err := m.plan.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Cells(l)); got != 4 {
		t.Errorf("cells = %d, want 4", got)
	}
	if err := s.Validate(tree); err != nil {
		t.Fatal(err)
	}
}

func TestAPaSRejectsInfeasible(t *testing.T) {
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	tiny := schedule.Slotframe{Slots: 50, Channels: 3, DataSlots: 40, SlotDuration: time.Millisecond}
	m, err := New(tree, tiny, demand)
	if err != nil {
		t.Fatal(err)
	}
	l := topology.Link{Child: 8, Direction: topology.Uplink}
	before := m.Demand(l)
	rep, err := m.SetLinkDemand(l, 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rejected {
		t.Fatal("infeasible increase accepted")
	}
	if m.Demand(l) != before {
		t.Errorf("demand not rolled back: %d", m.Demand(l))
	}
	if _, err := m.SetLinkDemand(l, -1, 1); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := m.SetLinkDemand(topology.Link{Child: 99}, 1, 1); err == nil {
		t.Error("unknown link accepted")
	}
}
