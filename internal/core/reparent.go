package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// ErrReparentFailed indicates a topology change could not be absorbed by
// partition adjustment; the plan is left partially migrated and should be
// rebuilt from scratch (which is what a real deployment does when
// incremental reconfiguration fails: the subtree re-bootstraps).
var ErrReparentFailed = errors.New("core: topology change not absorbable; rebuild the plan")

// TopologyAdjustment reports the cost of absorbing one parent switch.
type TopologyAdjustment struct {
	// ReleaseMessages counts the leave notification to the old parent plus
	// the schedule updates its release triggers.
	ReleaseMessages int
	// InsertReports are the per-layer adjustments that re-homed the moved
	// subtree's components under the new parent.
	InsertReports []*Adjustment
	// DemandReports are the adjustments from demand shifts on the old and
	// new forwarding paths.
	DemandReports []*Adjustment
}

// TotalMessages sums the HARP protocol messages of the whole migration.
func (t *TopologyAdjustment) TotalMessages() int {
	total := t.ReleaseMessages
	for _, r := range t.InsertReports {
		total += r.TotalMessages() + 1 // +1: the insertion request itself
	}
	for _, r := range t.DemandReports {
		total += r.TotalMessages()
	}
	return total
}

// Reparent absorbs a topology change (§V: "network dynamics ... e.g.,
// topology changes"): node — with its entire subtree — moves under
// newParent, as happens when RPL selects a more reliable parent. newDemand
// is the link demand of the *post-change* routing (computed by the caller
// from the task set over the new tree with traffic.Compute); each link's
// top rate is its fastest flow's. Links newDemand does not list keep the
// demand the plan holds.
//
// The migration reuses HARP's partition machinery end to end:
//
//  1. the old parent releases the subtree's components — a pure release,
//     so no partitions outside the old branch move (§V);
//  2. the subtree's interfaces are regenerated for its new depth;
//  3. each layer's component is inserted under the new parent through the
//     ordinary adjustment path (feasibility test, Alg. 2, escalation),
//     which re-grants partitions down the moved subtree;
//  4. demand changes on the old and new forwarding paths are applied as
//     ordinary traffic adjustments.
//
// On ErrReparentFailed the tree has been re-rooted but partitions are
// partially migrated; rebuild with NewPlan.
func (p *Plan) Reparent(node, newParent topology.NodeID, newDemand *traffic.Demand) (*TopologyAdjustment, error) {
	if node == topology.GatewayID {
		return nil, topology.ErrGateway
	}
	oldParent, err := p.Tree.Parent(node)
	if err != nil {
		return nil, err
	}
	if oldParent == newParent {
		return nil, fmt.Errorf("core: node %d already under %d", node, newParent)
	}
	subtree, err := p.Tree.Subtree(node)
	if err != nil {
		return nil, err
	}
	inSubtree := make([]bool, p.Tree.IndexCap())
	for _, id := range subtree {
		inSubtree[p.Tree.Index(id)] = true
	}
	isMoved := func(id topology.NodeID) bool {
		i := p.Tree.Index(id)
		return i >= 0 && inSubtree[i]
	}
	// Structural move first — topology.Reparent validates the cycle-freedom
	// and recomputes depths.
	if err := p.Tree.Reparent(node, newParent); err != nil {
		return nil, err
	}
	released := p.moveChild(node, oldParent, newParent)
	report := &TopologyAdjustment{}

	// While re-attaching, the moved node's own link carries no granted
	// cells; its demand re-appears in step 5 once the new parent ensures
	// capacity. Leaving the old value in place would poison intermediate
	// reschedules at the new parent (whose partition has not grown yet).
	ni := p.Tree.Index(node)
	var savedDemand [2]int
	var savedRate [2]float64
	for _, dir := range topology.Directions() {
		savedDemand[dir], savedRate[dir] = p.demand[dir][ni], p.topRate[dir][ni]
		p.demand[dir][ni] = 0
	}

	// 1. Release at the old parent: the moved child's components left
	// every layer with its slot (moveChild); the freed cells stay idle
	// inside the old branch's partitions. One leave notification plus the
	// old parent's schedule shrink, the released link's own notice
	// included.
	for _, dir := range topology.Directions() {
		rel := &Adjustment{Case: CaseRelease}
		if released[dir] {
			rel.ScheduleMessages++
		}
		if err := p.rescheduleOwn(oldParent, dir, rel); err != nil {
			return nil, err
		}
		report.ReleaseMessages += rel.ScheduleMessages
	}
	report.ReleaseMessages++ // the leave notification itself

	// 2. Reset the moved subtree's resource state and regenerate its
	// interfaces at the new depth (bottom-up, like the static phase).
	for _, id := range subtree {
		ns := p.node(id)
		for d := range ns.dirs {
			st := &ns.dirs[d]
			st.Base, st.Layers = 0, nil
			clear(st.runs)
			st.runRegion = schedule.Region{}
		}
	}

	// 3. Apply the post-change demands for links internal to the subtree
	// directly: their partitions are re-granted by the insertion below.
	for _, l := range newDemand.Links() {
		if isMoved(l.Child) && l.Child != node {
			i := p.Tree.Index(l.Child)
			p.demand[l.Direction][i] = newDemand.Cells(l)
			p.topRate[l.Direction][i] = fastestRate(newDemand, l)
		}
	}

	// Regenerate subtree interfaces bottom-up.
	for _, id := range p.subtreeByDepthDesc(subtree) {
		if p.Tree.IsLeaf(id) {
			continue
		}
		for _, dir := range topology.Directions() {
			if err := p.buildNodeInterface(id, dir); err != nil {
				return nil, err
			}
		}
	}

	// 4. Insert the subtree's per-layer components under the new parent via
	// the ordinary adjustment machinery; this re-grants partitions down the
	// whole moved subtree.
	for _, dir := range topology.Directions() {
		iface := p.node(node).dirs[dir].iface
		for layer := iface.FirstLayer; layer <= iface.LastLayer(); layer++ {
			comp, ok := iface.Component(layer)
			if !ok || comp.Empty() {
				continue
			}
			adj := &Adjustment{}
			hosted, err := p.escalate(node, dir, layer, comp, adj)
			if err != nil {
				return report, err
			}
			if !hosted {
				return report, fmt.Errorf("%w: %s layer %d of node %d", ErrReparentFailed, dir, layer, node)
			}
			adj.Case = CasePartitionUpdate
			report.InsertReports = append(report.InsertReports, adj)
		}
	}

	// 5. The new parent's own layer now carries the moved node's link —
	// even at unchanged demand, capacity must be ensured there.
	for _, dir := range topology.Directions() {
		l := topology.Link{Child: node, Direction: dir}
		p.demand[dir][ni], p.topRate[dir][ni] = savedDemand[dir], savedRate[dir]
		if c := newDemand.Cells(l); c > 0 {
			p.demand[dir][ni], p.topRate[dir][ni] = c, fastestRate(newDemand, l)
		}
		adj := &Adjustment{}
		hosted, err := p.ensureOwnCapacity(newParent, dir, adj)
		if err != nil {
			return report, err
		}
		if !hosted {
			return report, fmt.Errorf("%w: own link of node %d (%s)", ErrReparentFailed, node, dir)
		}
		report.InsertReports = append(report.InsertReports, adj)
	}

	// 6. Remaining demand shifts (the new forwarding path's increases, the
	// old path's releases) go through the ordinary traffic-change path, in
	// release-first order so freed cells are available to the increases.
	var increases []topology.Link
	for _, l := range newDemand.Links() {
		if isMoved(l.Child) {
			continue // subtree internals in step 3, the node's link in step 5
		}
		c, held := newDemand.Cells(l), p.Demand(l)
		if c == held {
			continue
		}
		if c < held {
			adj, err := p.SetLinkDemand(l, c, fastestRate(newDemand, l))
			if err != nil {
				return report, err
			}
			report.DemandReports = append(report.DemandReports, adj)
			continue
		}
		increases = append(increases, l)
	}
	for _, l := range increases {
		adj, err := p.SetLinkDemand(l, newDemand.Cells(l), fastestRate(newDemand, l))
		if err != nil {
			return report, err
		}
		if adj.Case == CaseRejected {
			return report, fmt.Errorf("%w: demand of %v", ErrReparentFailed, l)
		}
		report.DemandReports = append(report.DemandReports, adj)
	}
	p.debugCheck("Reparent")
	return report, nil
}

// moveChild moves node's slot, with its per-child records, from oldParent's
// child list to newParent's, as the tree just did. It reports, per
// direction, whether node's link held cells at the old parent.
func (p *Plan) moveChild(node, oldParent, newParent topology.NodeID) (released [2]bool) {
	op := p.node(oldParent)
	if k, ok := op.slot(node); ok {
		op.children = slices.Delete(op.children, k, k+1)
		for d := range op.dirs {
			st := &op.dirs[d]
			released[d] = st.runs[k].Count > 0
			st.runs = slices.Delete(st.runs, k, k+1)
			for i := range st.Layers {
				ls := &st.Layers[i]
				ls.layout = DeleteSlot(ls.layout, k)
				ls.comps = DeleteSlot(ls.comps, k)
			}
		}
	}
	np := p.node(newParent)
	k, _ := np.slot(node)
	np.children = slices.Insert(np.children, k, node)
	for d := range np.dirs {
		st := &np.dirs[d]
		st.runs = slices.Insert(st.runs, k, Run{})
		for i := range st.Layers {
			ls := &st.Layers[i]
			ls.layout = InsertSlot(ls.layout, k)
			ls.comps = InsertSlot(ls.comps, k)
		}
	}
	return released
}

// subtreeByDepthDesc orders subtree node IDs deepest-first under the
// current tree.
func (p *Plan) subtreeByDepthDesc(ids []topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, len(ids))
	copy(out, ids)
	depth := func(id topology.NodeID) int {
		d, _ := p.Tree.Depth(id) //harplint:allow errcheck — subtree ids come from the tree itself
		return d
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (depth(out[j]) > depth(out[j-1]) ||
			(depth(out[j]) == depth(out[j-1]) && out[j] < out[j-1])); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
