// Package invariant is the runtime checker for the correctness properties
// HARP's collision-freedom proof relies on (§IV-C/§V of the paper). It
// re-derives every property from the public query surface of the planner
// and the agent fleet — deliberately *not* reusing their internal
// bookkeeping — so a bug in the adjustment machinery cannot hide inside
// the same code that would have to report it.
//
// The properties checked are:
//
//   - Containment: every partition granted to a subtree lies inside the
//     partition its parent holds for the same layer and direction, and
//     inside the data sub-frame (Lemma 1's precondition).
//   - Disjointness: partitions granted to sibling subtrees at the same
//     layer never overlap, and the gateway's layer strips are pairwise
//     disjoint (the inductive step of the collision-freedom argument).
//   - Schedule containment: every cell assigned to a link lies inside the
//     own-layer partition of the node that scheduled it (§IV-D).
//   - Effectiveness: the materialised global schedule assigns no cell to
//     two links and respects the half-duplex constraint (§II-B).
//   - Convergence: the distributed agents' partitions and cell
//     assignments equal the centralized planner's, link by link.
//
// Checks are callable from tests and — behind the `harpdebug` build tag —
// run automatically after every dynamic adjustment in internal/core and
// after every local (re)assignment in internal/agent.
package invariant

import (
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// CheckSchedule verifies the effectiveness invariant of §II-B over a
// materialised schedule: every cell inside the slotframe, no cell shared by
// two links, and (when a tree is supplied) no node obliged to use its
// half-duplex radio twice in one slot.
func CheckSchedule(s *schedule.Schedule, tree *topology.Tree) error {
	x := s.Index()
	if tx, ok := x.OutOfFrame(); ok {
		return fmt.Errorf("invariant: link %v scheduled outside the slotframe at %v", tx.Link, tx.Cell)
	}
	if shared := x.SharedCells(); len(shared) > 0 {
		c := shared[0]
		return fmt.Errorf("invariant: cell %v assigned to both %v and %v", c.Cell, c.Links[0], c.Links[1])
	}
	if tree != nil {
		v, err := x.HalfDuplexViolations(tree)
		if err != nil {
			return err
		}
		if v > 0 {
			return fmt.Errorf("invariant: schedule has %d half-duplex violations", v)
		}
	}
	return nil
}

// partitionAt looks a granted partition up through the planner's public
// query surface.
func partitionAt(p *core.Plan, id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
	return p.Partition(id, layer, dir)
}

// CheckPlan verifies the hierarchical partition invariants over a
// centralized plan: containment, sibling disjointness, gateway-strip
// disjointness, schedule containment, and effectiveness of the global
// schedule. It is the programmatic form of the paper's Theorem 1
// ("HARP schedules are collision-free").
func CheckPlan(p *core.Plan) error {
	data := p.Frame.DataRegion()
	infos := p.Partitions()

	// Containment: inside the data sub-frame, and inside the parent's
	// same-layer partition for every non-gateway grantee.
	for _, info := range infos {
		if info.Region.Empty() {
			continue
		}
		if !data.ContainsRegion(info.Region) {
			return fmt.Errorf("invariant: node %d layer %d %s partition %v escapes the data sub-frame %v",
				info.Node, info.Layer, info.Direction, info.Region, data)
		}
		if info.Node == topology.GatewayID {
			continue
		}
		parent, err := p.Tree.Parent(info.Node)
		if err != nil {
			return err
		}
		host, ok := partitionAt(p, parent, info.Layer, info.Direction)
		if !ok {
			return fmt.Errorf("invariant: node %d holds a layer-%d %s partition but parent %d holds none",
				info.Node, info.Layer, info.Direction, parent)
		}
		if !host.ContainsRegion(info.Region) {
			return fmt.Errorf("invariant: node %d layer %d %s partition %v outside parent %d's %v",
				info.Node, info.Layer, info.Direction, info.Region, parent, host)
		}
	}

	// Sibling disjointness: among the children of each node, per layer and
	// direction.
	for _, id := range p.Tree.Nodes() {
		children := p.Tree.Children(id)
		for _, dir := range topology.Directions() {
			for layer := 1; layer <= p.Tree.MaxLayer(); layer++ {
				var held []topology.NodeID
				var regions []schedule.Region
				for _, c := range children {
					if r, ok := partitionAt(p, c, layer, dir); ok && !r.Empty() {
						held = append(held, c)
						regions = append(regions, r)
					}
				}
				for i := range regions {
					for j := i + 1; j < len(regions); j++ {
						if regions[i].Overlaps(regions[j]) {
							return fmt.Errorf("invariant: siblings %d and %d overlap at layer %d %s: %v vs %v",
								held[i], held[j], layer, dir, regions[i], regions[j])
						}
					}
				}
			}
		}
	}

	// Gateway strips: every (direction, layer) partition at the root is
	// disjoint from every other — adjacent layers share relay nodes, so any
	// overlap would break half-duplex by construction.
	var gwInfos []core.PartitionInfo
	for _, info := range infos {
		if info.Node == topology.GatewayID && !info.Region.Empty() {
			gwInfos = append(gwInfos, info)
		}
	}
	for i := range gwInfos {
		for j := i + 1; j < len(gwInfos); j++ {
			if gwInfos[i].Region.Overlaps(gwInfos[j].Region) {
				return fmt.Errorf("invariant: gateway strips overlap: layer %d %s %v vs layer %d %s %v",
					gwInfos[i].Layer, gwInfos[i].Direction, gwInfos[i].Region,
					gwInfos[j].Layer, gwInfos[j].Direction, gwInfos[j].Region)
			}
		}
	}

	// Schedule containment: every link's cells inside the scheduling
	// parent's own-layer partition. Overflow links (best-effort mode) carry
	// no plan cells and are exempt by construction.
	if err := checkLinkCells(p.Tree, p.Frame, func(l topology.Link) []schedule.Cell {
		return p.CellsOf(l)
	}, func(id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
		return partitionAt(p, id, layer, dir)
	}); err != nil {
		return err
	}

	// Effectiveness of the materialised schedule.
	s, err := p.BuildSchedule()
	if err != nil {
		return err
	}
	return CheckSchedule(s, p.Tree)
}

// checkLinkCells verifies that every link's assigned cells sit inside the
// own-layer partition of the parent that scheduled them, for an arbitrary
// state source (plan or fleet).
func checkLinkCells(tree *topology.Tree, frame schedule.Slotframe,
	cellsOf func(topology.Link) []schedule.Cell,
	partition func(topology.NodeID, int, topology.Direction) (schedule.Region, bool)) error {
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		parent, err := tree.Parent(id)
		if err != nil {
			return err
		}
		ownLayer, err := tree.LinkLayer(parent)
		if err != nil {
			return err
		}
		for _, dir := range topology.Directions() {
			l := topology.Link{Child: id, Direction: dir}
			cells := cellsOf(l)
			if len(cells) == 0 {
				continue
			}
			region, ok := partition(parent, ownLayer, dir)
			if !ok {
				return fmt.Errorf("invariant: %v has %d cells but parent %d holds no layer-%d %s partition",
					l, len(cells), parent, ownLayer, dir)
			}
			for _, c := range cells {
				if !region.Contains(c) {
					return fmt.Errorf("invariant: %v cell %v outside parent %d's own-layer partition %v",
						l, c, parent, region)
				}
				if !frame.InDataSubframe(c) {
					return fmt.Errorf("invariant: %v cell %v outside the data sub-frame", l, c)
				}
			}
		}
	}
	return nil
}

// fleetPartition reads one agent's granted partition through the fleet's
// public accessors.
func fleetPartition(f *agent.Fleet, id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
	n, err := f.Node(id)
	if err != nil {
		return schedule.Region{}, false
	}
	return n.Partition(dir, layer)
}

// fleetCells reads the cells the owning parent agent assigned to a link.
func fleetCells(f *agent.Fleet, l topology.Link) []schedule.Cell {
	parent, err := f.Tree.Parent(l.Child)
	if err != nil || parent == topology.None {
		return nil
	}
	n, err := f.Node(parent)
	if err != nil {
		return nil
	}
	return n.Assignment(l.Direction)[l.Child]
}

// CheckFleet verifies the same hierarchical invariants over a converged
// agent fleet, reading only the agents' public snapshot accessors. When a
// centralized plan is supplied, it additionally asserts convergence: the
// distributed execution must hold exactly the partitions and cell
// assignments the centralized planner computed from the same inputs. Call
// it only after the transport has drained (Bus.Run returned);
// mid-protocol states are legitimately inconsistent.
func CheckFleet(f *agent.Fleet, p *core.Plan) error {
	data := f.Frame.DataRegion()
	maxLayer := f.Tree.MaxLayer()

	for _, id := range f.Tree.Nodes() {
		children := f.Tree.Children(id)
		for _, dir := range topology.Directions() {
			for layer := 1; layer <= maxLayer; layer++ {
				region, ok := fleetPartition(f, id, layer, dir)
				if ok && !region.Empty() {
					if !data.ContainsRegion(region) {
						return fmt.Errorf("invariant: agent %d layer %d %s partition %v escapes the data sub-frame",
							id, layer, dir, region)
					}
					if id != topology.GatewayID {
						parent, err := f.Tree.Parent(id)
						if err != nil {
							return err
						}
						host, hostOK := fleetPartition(f, parent, layer, dir)
						if !hostOK {
							return fmt.Errorf("invariant: agent %d holds a layer-%d %s partition but parent %d holds none",
								id, layer, dir, parent)
						}
						if !host.ContainsRegion(region) {
							return fmt.Errorf("invariant: agent %d layer %d %s partition %v outside parent %d's %v",
								id, layer, dir, region, parent, host)
						}
					}
				}
				// Sibling disjointness among this node's children.
				var held []topology.NodeID
				var regions []schedule.Region
				for _, c := range children {
					if r, ok := fleetPartition(f, c, layer, dir); ok && !r.Empty() {
						held = append(held, c)
						regions = append(regions, r)
					}
				}
				for i := range regions {
					for j := i + 1; j < len(regions); j++ {
						if regions[i].Overlaps(regions[j]) {
							return fmt.Errorf("invariant: agent siblings %d and %d overlap at layer %d %s: %v vs %v",
								held[i], held[j], layer, dir, regions[i], regions[j])
						}
					}
				}
			}
		}
	}

	if err := checkLinkCells(f.Tree, f.Frame, func(l topology.Link) []schedule.Cell {
		return fleetCells(f, l)
	}, func(id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
		return fleetPartition(f, id, layer, dir)
	}); err != nil {
		return err
	}

	s, err := f.BuildSchedule()
	if err != nil {
		return err
	}
	if err := CheckSchedule(s, f.Tree); err != nil {
		return err
	}

	if p != nil {
		return checkConvergence(f, p)
	}
	return nil
}

// checkConvergence asserts that the fleet's distributed state equals the
// centralized plan's: same partitions at every (node, layer, direction) and
// same cell sequence on every link.
func checkConvergence(f *agent.Fleet, p *core.Plan) error {
	maxLayer := f.Tree.MaxLayer()
	for _, id := range f.Tree.Nodes() {
		for _, dir := range topology.Directions() {
			for layer := 1; layer <= maxLayer; layer++ {
				fr, fok := fleetPartition(f, id, layer, dir)
				pr, pok := p.Partition(id, layer, dir)
				// Compare occupied regions only: one side may record an
				// explicit empty grant where the other records absence.
				if fok && fr.Empty() {
					fok = false
				}
				if pok && pr.Empty() {
					pok = false
				}
				if fok != pok {
					return fmt.Errorf("invariant: node %d layer %d %s: agent holds partition=%t, planner holds partition=%t",
						id, layer, dir, fok, pok)
				}
				if fok && fr != pr {
					return fmt.Errorf("invariant: node %d layer %d %s: agent partition %v != planner partition %v",
						id, layer, dir, fr, pr)
				}
			}
			if id == topology.GatewayID {
				continue
			}
			l := topology.Link{Child: id, Direction: dir}
			fc := fleetCells(f, l)
			pc := p.CellsOf(l)
			if len(fc) != len(pc) {
				return fmt.Errorf("invariant: %v: agent holds %d cells, planner holds %d", l, len(fc), len(pc))
			}
			for i := range fc {
				if fc[i] != pc[i] {
					return fmt.Errorf("invariant: %v cell %d: agent %v != planner %v", l, i, fc[i], pc[i])
				}
			}
		}
	}
	return nil
}

// Orphans returns the live nodes still attached below a down branch:
// every node for which down reports false but that has an ancestor for
// which it reports true, sorted. After a completed self-heal (failure
// detection plus orphan adoption) the slice must be empty — every
// survivor was re-homed under a live ancestor chain.
func Orphans(tree *topology.Tree, down func(topology.NodeID) bool) []topology.NodeID {
	var orphans []topology.NodeID
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID || down(id) {
			continue
		}
		ancestors, err := tree.Ancestors(id)
		if err != nil {
			continue
		}
		for _, a := range ancestors {
			if down(a) {
				orphans = append(orphans, id)
				break
			}
		}
	}
	return orphans
}

// CheckNoOrphans fails if any live node still hangs below a down branch.
func CheckNoOrphans(tree *topology.Tree, down func(topology.NodeID) bool) error {
	if orphans := Orphans(tree, down); len(orphans) > 0 {
		return fmt.Errorf("invariant: %d live nodes below dead branches (first: %d)", len(orphans), orphans[0])
	}
	return nil
}
