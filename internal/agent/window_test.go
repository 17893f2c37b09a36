package agent

import (
	"testing"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// windowLayers lists the layers of st's window that hold a partition.
func windowLayers(st *dirState) map[int]schedule.Region {
	out := make(map[int]schedule.Region)
	for i, ls := range st.Layers {
		if ls.hasPart {
			out[st.Base+i] = ls.part
		}
	}
	return out
}

// TestLayerWindowKeepsStaleGrants drives the layer window with the two
// shapes of grant that land outside [ownLayer, maxLayer]: a node whose
// depth just changed, and a rebooted relay that is now a leaf. A write
// below the base or above the top grows the window and keeps every record
// already there; a read outside it sees an absent layer.
func TestLayerWindowKeepsStaleGrants(t *testing.T) {
	stale := schedule.Region{Slot: 40, Channel: 1, Slots: 3, Channels: 1}

	t.Run("depth change", func(t *testing.T) {
		// Node 5 moves under leaf 6: its own layer deepens from 3 to 4, and
		// a grant its old parent sent for layer 3 can still arrive.
		tree := topology.Fig1()
		fleet, bus := deployOnBus(t, tree, 1, testFrame())
		if err := fleet.Reparent(5, 6, reparentedDemand(t, tree, 5, 6)); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
		n := fleet.node(5)
		st := n.dir(topology.Uplink)
		if st.Base != n.ownLayer || len(st.Layers) != n.maxLayer-n.ownLayer+1 {
			t.Fatalf("window [%d, %d), want [%d, %d]", st.Base, st.Base+len(st.Layers), n.ownLayer, n.maxLayer)
		}
		before := windowLayers(st)
		if len(before) == 0 {
			t.Fatal("node 5 holds no partition after re-joining")
		}

		below, above := n.ownLayer-1, n.maxLayer+2
		for _, l := range []int{below, above} {
			if _, ok := n.Partition(topology.Uplink, l); ok {
				t.Fatalf("layer %d outside the window reads as granted", l)
			}
			n.applyPartition(topology.Uplink, l, stale)
		}
		if st.Base != below || st.Base+len(st.Layers)-1 != above {
			t.Fatalf("window [%d, %d] after the stale grants, want [%d, %d]",
				st.Base, st.Base+len(st.Layers)-1, below, above)
		}
		after := windowLayers(st)
		for l, r := range before {
			if after[l] != r {
				t.Errorf("layer %d: %v after growing, was %v", l, after[l], r)
			}
		}
		for _, l := range []int{below, above} {
			if r, ok := n.Partition(topology.Uplink, l); !ok || r != stale {
				t.Errorf("layer %d: %v, %t; want the stale grant %v", l, r, ok, stale)
			}
		}
		if _, ok := n.Partition(topology.Uplink, n.maxLayer+1); ok {
			t.Errorf("the gap layer %d inside the grown window reads as granted", n.maxLayer+1)
		}
		if ls := st.Layer(above + 1); ls != nil {
			t.Errorf("layer %d beyond the top has a record", above+1)
		}
	})

	t.Run("rebooted relay now leaf", func(t *testing.T) {
		// Leaf 8 stands for a relay whose children were adopted away while
		// it was down: its parent still re-syncs the region it holds for it.
		fleet, _ := deployOnBus(t, topology.Fig1(), 1, testFrame())
		n := fleet.node(8)
		for d := range n.dirs {
			if cap(n.dirs[d].Layers) != 0 || cap(n.dirs[d].kids) != 0 {
				t.Fatalf("leaf carries records: %d layers, %d children", len(n.dirs[d].Layers), len(n.dirs[d].kids))
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for l := 0; l <= 2*n.ownLayer; l++ {
				if _, ok := n.Partition(topology.Downlink, l); ok {
					t.Fatalf("leaf reads a partition at layer %d", l)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("leaf reads allocate %.0f times", allocs)
		}

		l := n.ownLayer + 1
		n.applyPartition(topology.Downlink, l, stale)
		st := n.dir(topology.Downlink)
		if st.Base != l || len(st.Layers) != 1 {
			t.Fatalf("window [%d, %d), want [%d, %d)", st.Base, st.Base+len(st.Layers), l, l+1)
		}
		if r, ok := n.Partition(topology.Downlink, l); !ok || r != stale {
			t.Errorf("layer %d: %v, %t; want the stale grant %v", l, r, ok, stale)
		}
		if n.dirs[topology.Uplink].Layers != nil {
			t.Error("a downlink grant gave the uplink a window")
		}
	})
}
