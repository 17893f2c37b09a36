package agent

import (
	"slices"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// MyCells returns the cells granted by the parent for this node's own link.
func (n *Node) MyCells(d topology.Direction) []schedule.Cell {
	return append([]schedule.Cell(nil), n.dir(d).myCells...)
}

// DefaultDetectorConfig returns the standard thresholds for a slotframe
// length: sweep every slotframe, suspect after 3, declare dead after 6,
// abort stale adjustments after 80.
func DefaultDetectorConfig(slotframeSlots int) DetectorConfig {
	sf := float64(slotframeSlots)
	return DetectorConfig{
		Interval:     sf,
		SuspectAfter: 3 * sf,
		DeadAfter:    6 * sf,
		AbortAfter:   80 * sf,
	}
}

// Stop unwires the delivery hook and cancels the pending sweep, so the
// clock can drain again. The deployment's virtual-clock reading stays
// bound.
func (d *Detector) Stop() {
	d.stopped = true
	if d.timer != nil {
		d.timer.Cancel()
		d.timer = nil
	}
	d.fleet.setHeard(nil)
}

// Suspected reports whether the detector currently suspects a node.
func (d *Detector) Suspected(id topology.NodeID) bool { return d.stateOf(id) == liveSuspect }

// QueuedDeferrals returns the adjust requests currently waiting on some
// agent's per-layer deferral queue (layerState.deferred), for external tests
// that cannot reach agent state.
func QueuedDeferrals(f *Fleet) int {
	queued := 0
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		for d := range n.dirs {
			for _, ls := range n.dirs[d].layers {
				queued += len(ls.deferred)
			}
		}
	}
	return queued
}

// CommittedChildren lists, in NodeID order, the children whose components
// node id holds in its committed composition at one layer.
func CommittedChildren(f *Fleet, id topology.NodeID, d topology.Direction, layer int) []topology.NodeID {
	ls := f.node(id).dir(d).layer(layer)
	if ls == nil {
		return nil
	}
	ids := make([]topology.NodeID, 0, len(ls.comps))
	for c := range ls.comps {
		ids = append(ids, c)
	}
	slices.Sort(ids)
	return ids
}
