package agent

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// deployBytesCeiling is the committed per-node memory budget for a deployed
// 10k fleet (agents + transport registration, excluding the tree itself).
// Measured 1145 bytes/node with the per-fleet constants behind one shared
// pointer: the Node struct itself (480 B size class), the bus slot and index
// entry, and the protocol maps of the ~40% of nodes that host children. The
// ceiling is the measurement + 10 % for runtime variance, not for
// re-introducing per-leaf map allocations (24 map headers per leaf alone
// would blow it).
const deployBytesCeiling = 1260

// nodeSizeCeiling pins Node at its measured size (the 480-byte allocation
// class): per-fleet constants belong in shared, per-host view records in
// scheduleView, and an agent carries no lock — a field added to every one
// of 50 000 mostly-leaf agents has to earn it.
const nodeSizeCeiling = 480

func TestNodeStructSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > nodeSizeCeiling {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, ceiling %d", got, nodeSizeCeiling)
	}
}

// TestDeployBytesPerNode pins the fleet's deployed footprint: leaves carry
// no protocol maps, fleet and bus state live in dense index-addressed
// slices, so bytes/node must stay flat as fleets grow.
func TestDeployBytesPerNode(t *testing.T) {
	const nodes = 10_000
	spec := topology.GenSpec{Nodes: nodes, Layers: 8, MaxChildren: 8}
	tree, err := topology.GenerateScale(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	frame := schedule.Testbed()
	frame.Slots, frame.DataSlots = 997, 960
	bus, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse demand, as a real large deployment has: a handful of active
	// links, everything else zero.
	cells := make(map[topology.Link]int)
	for i, c := range tree.Children(topology.GatewayID) {
		if i >= 4 {
			break
		}
		cells[topology.Link{Child: c, Direction: topology.Uplink}] = 2
	}
	demand := traffic.FromCells(cells)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fleet, err := Deploy(tree, frame, demand, bus)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fleet)

	perNode := int(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("deployed footprint: %d bytes/node (%d nodes)", perNode, nodes)
	if perNode > deployBytesCeiling {
		t.Errorf("deploy footprint = %d bytes/node, budget %d — per-leaf allocations crept back in",
			perNode, deployBytesCeiling)
	}
}
