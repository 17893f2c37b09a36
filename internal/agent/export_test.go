package agent

import (
	"slices"

	"github.com/harpnet/harp/internal/topology"
)

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
