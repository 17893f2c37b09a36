package core

import (
	"fmt"
	"sort"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// dirState is one direction's worth of HARP state at a node: the interface
// it reported upward, the composition layouts it retained per layer, the
// partitions it was granted, and the cell assignment of its own-layer links.
type dirState struct {
	iface      Interface
	layouts    map[int]Layout                        // layer (> own link layer) -> composition layout
	parts      map[int]schedule.Region               // layer -> granted partition
	assignment map[topology.Link][]schedule.Cell     // own-layer links -> cells
	childComps map[int]map[topology.NodeID]Component // layer -> child -> component (as last reported)
}

func newDirState() *dirState {
	return &dirState{
		layouts:    make(map[int]Layout),
		parts:      make(map[int]schedule.Region),
		assignment: make(map[topology.Link][]schedule.Cell),
		childComps: make(map[int]map[topology.NodeID]Component),
	}
}

// nodeState aggregates both directions for a node.
type nodeState struct {
	id   topology.NodeID
	dirs [2]*dirState
}

func (n *nodeState) dir(d topology.Direction) *dirState { return n.dirs[d] }

// StaticStats counts the protocol cost of the static partition allocation
// phase (one POST-intf per reporting node, one POST-part per partition
// grant, one schedule notification per scheduled link).
type StaticStats struct {
	InterfaceMessages int
	PartitionMessages int
	ScheduleMessages  int
}

// Total returns the total message count of the static phase.
func (s StaticStats) Total() int {
	return s.InterfaceMessages + s.PartitionMessages + s.ScheduleMessages
}

// Plan is the complete HARP resource-management state for one network: the
// hierarchy of partitions, the per-node layouts needed to adjust them, and
// the resulting collision-free schedule. A Plan is mutable: traffic changes
// are applied through SetLinkDemand, which performs the dynamic partition
// adjustment of §V and reports its cost.
//
// Plan is not safe for concurrent use.
type Plan struct {
	Tree  *topology.Tree
	Frame schedule.Slotframe

	demand  map[topology.Link]int
	topRate map[topology.Link]float64
	nodes   map[topology.NodeID]*nodeState

	// Overflow lists links that could not be isolated because the data
	// sub-frame was too small (best-effort mode only).
	Overflow []topology.Link

	// Static holds the message cost of the initial allocation.
	Static StaticStats

	bestEffort bool
	rootGap    int
}

// Options configures plan construction.
type Options struct {
	// BestEffort makes root allocation place what fits and report the rest
	// as Overflow instead of failing, modelling HARP in under-provisioned
	// networks (Fig. 11(b) with few channels). Default false: fail with
	// ErrInfeasible.
	BestEffort bool
	// RootGap inserts this many idle slots between the gateway's layer
	// partitions, letting later adjustments widen a layer without shifting
	// (and re-signalling) its successors.
	RootGap int
}

// NewPlan runs HARP's static partition allocation phase (§IV): bottom-up
// resource-interface generation, top-down partition allocation, and
// distributed schedule generation, over the given tree and demand.
func NewPlan(tree *topology.Tree, frame schedule.Slotframe, demand *traffic.Demand, opts Options) (*Plan, error) {
	cells := make(map[topology.Link]int)
	rates := make(map[topology.Link]float64)
	for _, l := range demand.Links() {
		cells[l] = demand.Cells(l)
		flows := demand.Flows(l)
		if len(flows) > 0 {
			rates[l] = flows[0].Task.Rate // flows are rate-sorted
		}
	}
	return NewPlanFromLinkDemand(tree, frame, cells, rates, opts)
}

// NewPlanFromLinkDemand is NewPlan for callers that already hold link-level
// cell requirements (e.g. the centralized APaS baseline, or agents replaying
// protocol state). The maps are copied.
func NewPlanFromLinkDemand(tree *topology.Tree, frame schedule.Slotframe, cells map[topology.Link]int, topRate map[topology.Link]float64, opts Options) (*Plan, error) {
	if err := frame.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Tree:       tree,
		Frame:      frame,
		demand:     make(map[topology.Link]int, len(cells)),
		topRate:    make(map[topology.Link]float64, len(topRate)),
		nodes:      make(map[topology.NodeID]*nodeState),
		bestEffort: opts.BestEffort,
		rootGap:    opts.RootGap,
	}
	for l, c := range cells {
		if c < 0 {
			return nil, fmt.Errorf("core: negative demand %d on %v", c, l)
		}
		p.demand[l] = c
	}
	for l, r := range topRate {
		p.topRate[l] = r
	}
	for _, id := range tree.Nodes() {
		p.nodes[id] = &nodeState{id: id, dirs: [2]*dirState{newDirState(), newDirState()}}
	}
	if err := p.buildInterfaces(); err != nil {
		return nil, err
	}
	if err := p.allocate(); err != nil {
		return nil, err
	}
	return p, nil
}

// childLinkDemands returns the demands of the links between node id and its
// children in one direction, sorted by child.
func (p *Plan) childLinkDemands(id topology.NodeID, dir topology.Direction) []LinkDemand {
	children := p.Tree.Children(id)
	out := make([]LinkDemand, 0, len(children))
	for _, c := range children {
		l := topology.Link{Child: c, Direction: dir}
		out = append(out, LinkDemand{Link: l, Cells: p.demand[l], TopRate: p.topRate[l]})
	}
	return out
}

// nodesByDepthDesc returns all node IDs ordered deepest-first — the
// bottom-up interface generation order.
func (p *Plan) nodesByDepthDesc() []topology.NodeID {
	ids := p.Tree.Nodes()
	sort.Slice(ids, func(i, j int) bool {
		di, _ := p.Tree.Depth(ids[i]) //harplint:allow errcheck — ids come from the tree itself
		dj, _ := p.Tree.Depth(ids[j]) //harplint:allow errcheck
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// buildInterfaces runs the bottom-up resource interface generation (§IV-B)
// for both directions.
func (p *Plan) buildInterfaces() error {
	for _, id := range p.nodesByDepthDesc() {
		if p.Tree.IsLeaf(id) {
			continue
		}
		for _, dir := range topology.Directions() {
			if err := p.buildNodeInterface(id, dir); err != nil {
				return err
			}
		}
		if id != topology.GatewayID {
			p.Static.InterfaceMessages++ // POST-intf carrying both directions
		}
	}
	return nil
}

// buildNodeInterface computes one node's interface in one direction from
// its child link demands (Case 1) and its children's interfaces (Case 2).
func (p *Plan) buildNodeInterface(id topology.NodeID, dir topology.Direction) error {
	st := p.nodes[id].dir(dir)
	ownLayer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return err
	}
	deepest, err := p.Tree.SubtreeMaxLayer(id)
	if err != nil {
		return err
	}
	comps := make([]Component, 0, deepest-ownLayer+1)

	// Case 1: own-layer component from the child link demands.
	demands := p.childLinkDemands(id, dir)
	cells := make([]int, len(demands))
	for i, d := range demands {
		cells[i] = d.Cells
	}
	comps = append(comps, OwnLayerComponent(cells))

	// Case 2: deeper layers by composing the children's components.
	for layer := ownLayer + 1; layer <= deepest; layer++ {
		children := make([]ChildComponent, 0, len(demands))
		byChild := make(map[topology.NodeID]Component)
		for _, c := range p.Tree.Children(id) {
			if p.Tree.IsLeaf(c) {
				continue
			}
			comp, ok := p.nodes[c].dir(dir).iface.Component(layer)
			if !ok || comp.Empty() {
				continue
			}
			children = append(children, ChildComponent{Child: c, Comp: comp})
			byChild[c] = comp
		}
		comp, layout, err := Compose(children, p.Frame.Channels)
		if err != nil {
			return fmt.Errorf("core: composing node %d %s layer %d: %w", id, dir, layer, err)
		}
		comps = append(comps, comp)
		st.layouts[layer] = layout
		st.childComps[layer] = byChild
	}
	st.iface = Interface{Owner: id, FirstLayer: ownLayer, Comps: comps}
	return nil
}

// allocate runs the top-down partition allocation (§IV-C) and the
// distributed schedule generation (§IV-D).
func (p *Plan) allocate() error {
	gw := p.nodes[topology.GatewayID]
	up := gw.dir(topology.Uplink).iface
	down := gw.dir(topology.Downlink).iface
	alloc, err := AllocateRoot(up, down, p.Frame, p.bestEffort, p.rootGap)
	if err != nil {
		return err
	}
	p.Overflow = nil
	overflowLayers := make(map[DirLayer]bool, len(alloc.Overflow))
	for _, dl := range alloc.Overflow {
		overflowLayers[dl] = true
		for _, id := range p.Tree.NodesAtDepth(dl.Layer) {
			l := topology.Link{Child: id, Direction: dl.Direction}
			if p.demand[l] > 0 {
				p.Overflow = append(p.Overflow, l)
			}
		}
	}
	for dl, region := range alloc.Partitions {
		gw.dir(dl.Direction).parts[dl.Layer] = region
	}
	// Top-down split, breadth-first from the gateway.
	queue := []topology.NodeID{topology.GatewayID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, dir := range topology.Directions() {
			if err := p.settleNode(id, dir); err != nil {
				return err
			}
		}
		for _, c := range p.Tree.Children(id) {
			if !p.Tree.IsLeaf(c) {
				queue = append(queue, c)
				p.Static.PartitionMessages++ // POST-part to this child
			}
		}
	}
	return nil
}

// settleNode consumes a node's granted partitions: schedules its own-layer
// links and splits deeper-layer partitions among its children.
func (p *Plan) settleNode(id topology.NodeID, dir topology.Direction) error {
	st := p.nodes[id].dir(dir)
	ownLayer, _ := p.Tree.LinkLayer(id) //harplint:allow errcheck — id comes from the tree itself
	for layer, region := range st.parts {
		if layer == ownLayer {
			if err := p.scheduleOwnLayer(id, dir, region); err != nil {
				return err
			}
			continue
		}
		split, err := SplitPartition(region, st.layouts[layer], st.childComps[layer])
		if err != nil {
			return err
		}
		for child, childRegion := range split {
			p.nodes[child].dir(dir).parts[layer] = childRegion
		}
	}
	return nil
}

// scheduleOwnLayer runs RM cell assignment for a node's child links within
// its own-layer partition.
func (p *Plan) scheduleOwnLayer(id topology.NodeID, dir topology.Direction, region schedule.Region) error {
	demands := p.childLinkDemands(id, dir)
	assignment, err := AssignCells(region, demands)
	if err != nil {
		return fmt.Errorf("core: scheduling node %d %s: %w", id, dir, err)
	}
	st := p.nodes[id].dir(dir)
	st.assignment = assignment
	p.Static.ScheduleMessages += len(assignment)
	return nil
}

// Partition returns the partition granted to node id's subtree at the given
// layer and direction.
func (p *Plan) Partition(id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
	st, ok := p.nodes[id]
	if !ok {
		return schedule.Region{}, false
	}
	r, ok := st.dir(dir).parts[layer]
	return r, ok
}

// InterfaceOf returns the resource interface node id reported in one
// direction.
func (p *Plan) InterfaceOf(id topology.NodeID, dir topology.Direction) (Interface, bool) {
	st, ok := p.nodes[id]
	if !ok {
		return Interface{}, false
	}
	return st.dir(dir).iface, true
}

// CellsOf returns the cells currently assigned to a link (nil if none).
func (p *Plan) CellsOf(l topology.Link) []schedule.Cell {
	parent, err := p.Tree.Parent(l.Child)
	if err != nil || parent == topology.None {
		return nil
	}
	cells := p.nodes[parent].dir(l.Direction).assignment[l]
	out := make([]schedule.Cell, len(cells))
	copy(out, cells)
	return out
}

// Demand returns the plan's current cell requirement for a link.
func (p *Plan) Demand(l topology.Link) int { return p.demand[l] }

// BuildSchedule materialises the full network schedule from the per-node
// assignments. Overflow links (best-effort mode) carry no cells here; the
// scheduler adapters give them fallback cells.
func (p *Plan) BuildSchedule() (*schedule.Schedule, error) {
	s, err := schedule.NewSchedule(p.Frame)
	if err != nil {
		return nil, err
	}
	for _, id := range p.Tree.Nodes() {
		for _, dir := range topology.Directions() {
			st := p.nodes[id].dir(dir)
			for l, cells := range st.assignment {
				if err := s.Assign(l, cells...); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// Partitions returns every granted partition as (node, layer, direction,
// region) tuples, sorted, for rendering slotframe maps (Fig. 7(d)).
type PartitionInfo struct {
	Node      topology.NodeID
	Layer     int
	Direction topology.Direction
	Region    schedule.Region
}

// Partitions lists all partitions in deterministic order.
func (p *Plan) Partitions() []PartitionInfo {
	var out []PartitionInfo
	for _, id := range p.Tree.Nodes() {
		for _, dir := range topology.Directions() {
			st := p.nodes[id].dir(dir)
			for layer, region := range st.parts {
				out = append(out, PartitionInfo{Node: id, Layer: layer, Direction: dir, Region: region})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Direction != b.Direction {
			return a.Direction < b.Direction
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Node < b.Node
	})
	return out
}

// Validate checks the paper's core invariants over the whole plan:
// sibling partitions never overlap, child partitions stay inside their
// parents, every scheduled link's cells lie inside its parent's own-layer
// partition, and the materialised schedule is collision-free and
// half-duplex clean.
func (p *Plan) Validate() error {
	for _, dir := range topology.Directions() {
		// Gateway-level partitions must be pairwise disjoint; read in layer
		// order so the reported pair is deterministic.
		gw := p.nodes[topology.GatewayID].dir(dir).parts
		layers := make([]int, 0, len(gw))
		for layer := range gw {
			layers = append(layers, layer)
		}
		sort.Ints(layers)
		for i, a := range layers {
			for _, b := range layers[i+1:] {
				if gw[a].Overlaps(gw[b]) {
					return fmt.Errorf("core: gateway partitions overlap: %v vs %v", gw[a], gw[b])
				}
			}
		}
		// Children inside parents, siblings disjoint, at every node.
		for _, id := range p.Tree.Nodes() {
			st := p.nodes[id].dir(dir)
			ownLayer, _ := p.Tree.LinkLayer(id) //harplint:allow errcheck — id comes from the tree itself
			for layer, region := range st.parts {
				if layer == ownLayer {
					continue
				}
				var kids []schedule.Region
				for _, c := range p.Tree.Children(id) {
					if kr, ok := p.nodes[c].dir(dir).parts[layer]; ok {
						if !region.ContainsRegion(kr) {
							return fmt.Errorf("core: node %d layer %d: child %d partition %v outside %v",
								id, layer, c, kr, region)
						}
						kids = append(kids, kr)
					}
				}
				for i := range kids {
					for j := i + 1; j < len(kids); j++ {
						if kids[i].Overlaps(kids[j]) {
							return fmt.Errorf("core: node %d layer %d: sibling partitions overlap", id, layer)
						}
					}
				}
			}
			for l, cells := range st.assignment {
				own, ok := st.parts[ownLayer]
				if !ok && len(cells) > 0 {
					return fmt.Errorf("core: node %d schedules %v without a partition", id, l)
				}
				for _, c := range cells {
					if !own.Contains(c) {
						return fmt.Errorf("core: node %d: cell %v of %v outside partition %v", id, c, l, own)
					}
				}
			}
		}
	}
	s, err := p.BuildSchedule()
	if err != nil {
		return err
	}
	return s.Validate(p.Tree)
}
