package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// dirState is one direction's worth of HARP state at a node: the interface
// it reported upward, one record per layer it holds state at, and the cell
// assignment of its own-layer links.
type dirState struct {
	iface Interface

	// Window holds the per-layer records.
	Window[layerState]

	// runs is the own-layer links' cell assignment by child slot: runs
	// inside runRegion, the own-layer partition they were assigned in.
	runs      []Run
	runRegion schedule.Region
}

// layerState is one direction's state at one layer: the partition granted
// there and, at layers below the node's own link layer, the composition it
// retained — the children's components as last reported and where each
// sits — both by child slot.
type layerState struct {
	part    schedule.Region
	hasPart bool
	layout  Layout
	comps   []Component
}

// Granted returns the partition granted at the layer, if any.
func (ls layerState) Granted() (schedule.Region, bool) { return ls.part, ls.hasPart }

// sizedComps returns the layer's child components with one entry per child
// slot, extending a shorter (or nil) slice with empty components: the
// shape the kernels take.
func (ls *layerState) sizedComps(slots int) []Component {
	if n := len(ls.comps); n < slots {
		ls.comps = append(ls.comps, make([]Component, slots-n)...)
	}
	return ls.comps
}

// nodeState aggregates both directions for a node.
type nodeState struct {
	// children are the node's children in ascending ID order: the slot
	// order of every per-child slice below. NewPlan copies them from the
	// tree and Reparent keeps them in step with it.
	children []topology.NodeID
	dirs     [2]dirState
}

// slot returns child c's slot, and whether c is a child.
func (n *nodeState) slot(c topology.NodeID) (int, bool) {
	return slices.BinarySearch(n.children, c)
}

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

	// demand and topRate hold each child link's cell requirement and its
	// fastest task's rate, by direction and the child's Tree.Index.
	demand  [2][]int
	topRate [2][]float64
	nodes   []nodeState // by Tree.Index

	// Overflow lists links that could not be isolated because the data
	// sub-frame was too small (best-effort mode only).
	Overflow []topology.Link

	// Static holds the message cost of the initial allocation.
	Static StaticStats

	bestEffort bool
	rootGap    int

	scratch KernelScratch
	// cells lists one run's cells for BuildSchedule, Validate and
	// rescheduleOwn.
	cells []schedule.Cell
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
	p, err := newPlan(tree, frame, opts)
	if err != nil {
		return nil, err
	}
	for _, l := range demand.Links() {
		i, err := p.heldLinkIndex(l)
		if err != nil {
			return nil, err
		}
		p.demand[l.Direction][i] = demand.Cells(l)
		p.topRate[l.Direction][i] = fastestRate(demand, l)
	}
	return p.build()
}

// NewPlanFromLinkDemand is NewPlan for callers that already hold link-level
// cell requirements (e.g. the centralized APaS baseline, or agents replaying
// protocol state). The maps are copied.
func NewPlanFromLinkDemand(tree *topology.Tree, frame schedule.Slotframe, cells map[topology.Link]int, topRate map[topology.Link]float64, opts Options) (*Plan, error) {
	p, err := newPlan(tree, frame, opts)
	if err != nil {
		return nil, err
	}
	for l, c := range cells {
		i, err := p.heldLinkIndex(l)
		if err != nil {
			return nil, err
		}
		if c < 0 {
			return nil, fmt.Errorf("core: negative demand %d on %v", c, l)
		}
		p.demand[l.Direction][i] = c
	}
	for l, r := range topRate {
		i, err := p.heldLinkIndex(l)
		if err != nil {
			return nil, err
		}
		p.topRate[l.Direction][i] = r
	}
	return p.build()
}

// fastestRate returns the rate of the fastest task on link l, 0 if none.
func fastestRate(demand *traffic.Demand, l topology.Link) float64 {
	if flows := demand.Flows(l); len(flows) > 0 {
		return flows[0].Task.Rate // flows are rate-sorted
	}
	return 0
}

// newPlan validates the frame and tree and returns a plan holding no
// demand yet.
func newPlan(tree *topology.Tree, frame schedule.Slotframe, opts Options) (*Plan, error) {
	if err := frame.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	n := tree.IndexCap()
	cells, rates := make([]int, 2*n), make([]float64, 2*n)
	p := &Plan{
		Tree:       tree,
		Frame:      frame,
		demand:     [2][]int{cells[:n:n], cells[n:]},
		topRate:    [2][]float64{rates[:n:n], rates[n:]},
		nodes:      make([]nodeState, n),
		bestEffort: opts.BestEffort,
		rootGap:    opts.RootGap,
	}
	// Every node's child list and run slices are cut from one backing
	// array each, capped so that a child joining under Reparent copies
	// only its new parent's.
	kids := make([]topology.NodeID, 0, tree.Len()-1)
	var runs [2][]Run
	for d := range runs {
		runs[d] = make([]Run, tree.Len()-1)
	}
	for i := range p.nodes {
		from := len(kids)
		kids = tree.AppendChildren(kids, tree.NodeAt(i))
		ns := &p.nodes[i]
		ns.children = kids[from:len(kids):len(kids)]
		for d := range ns.dirs {
			ns.dirs[d].runs = runs[d][from:len(kids):len(kids)]
		}
	}
	return p, nil
}

// build runs the static phase over the demand the plan holds.
func (p *Plan) build() (*Plan, error) {
	if err := p.buildInterfaces(); err != nil {
		return nil, err
	}
	if err := p.allocate(); err != nil {
		return nil, err
	}
	return p, nil
}

// linkIndex returns the Tree.Index under which the plan holds link l's
// demand, and false for a link that is not a child link of the tree.
func (p *Plan) linkIndex(l topology.Link) (int, bool) {
	i := p.Tree.Index(l.Child)
	return i, l.Child != topology.GatewayID && i >= 0 && i < len(p.nodes) && l.Direction <= topology.Downlink
}

// heldLinkIndex is linkIndex for input links: an error names one the plan
// cannot hold.
func (p *Plan) heldLinkIndex(l topology.Link) (int, error) {
	if i, ok := p.linkIndex(l); ok {
		return i, nil
	}
	return 0, fmt.Errorf("core: link %v is not a child link of the tree", l)
}

// node returns node id's state. id must be in the tree.
func (p *Plan) node(id topology.NodeID) *nodeState { return &p.nodes[p.Tree.Index(id)] }

// lookup returns node id's state, or nil for an ID the plan does not hold.
func (p *Plan) lookup(id topology.NodeID) *nodeState {
	if i := p.Tree.Index(id); i >= 0 && i < len(p.nodes) {
		return &p.nodes[i]
	}
	return nil
}

// childLinkDemands returns the demands of the links between a node and its
// children in one direction, by child slot, in the plan's scratch.
func (p *Plan) childLinkDemands(ns *nodeState, dir topology.Direction) []LinkDemand {
	out := p.scratch.Demands[:0]
	cells, rates := p.demand[dir], p.topRate[dir]
	for _, c := range ns.children {
		i := p.Tree.Index(c)
		out = append(out, LinkDemand{Link: topology.Link{Child: c, Direction: dir}, Cells: cells[i], TopRate: rates[i]})
	}
	p.scratch.Demands = out
	return out
}

// ownDemand returns the total demand of a node's child links in one
// direction.
func (p *Plan) ownDemand(ns *nodeState, dir topology.Direction) int {
	total := 0
	for _, c := range ns.children {
		total += p.demand[dir][p.Tree.Index(c)]
	}
	return total
}

// buildInterfaces runs the bottom-up resource interface generation (§IV-B)
// for both directions.
func (p *Plan) buildInterfaces() error {
	for _, id := range p.Tree.DeepestFirst() {
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
	ns := p.node(id)
	st := &ns.dirs[dir]
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
	comps = append(comps, OwnLayerComponent(p.ownDemand(ns, dir)))

	// Case 2: deeper layers by composing the children's components.
	st.Cover(ownLayer, deepest)
	for layer := ownLayer + 1; layer <= deepest; layer++ {
		ls := st.Layer(layer)
		byChild := ls.comps[:0]
		for _, c := range ns.children {
			var comp Component
			if !p.Tree.IsLeaf(c) {
				// A leaf reports nothing, even one that hosted a subtree
				// before a topology change.
				comp, _ = p.node(c).dirs[dir].iface.Component(layer)
			}
			byChild = append(byChild, comp)
		}
		comp, layout, err := Compose(byChild, p.Frame.Channels)
		if err != nil {
			return fmt.Errorf("core: composing node %d %s layer %d: %w", id, dir, layer, err)
		}
		comps = append(comps, comp)
		ls.layout, ls.comps = layout, byChild
	}
	st.iface = Interface{Owner: id, FirstLayer: ownLayer, Comps: comps}
	return nil
}

// allocate runs the top-down partition allocation (§IV-C) and the
// distributed schedule generation (§IV-D).
func (p *Plan) allocate() error {
	gw := p.node(topology.GatewayID)
	up := gw.dirs[topology.Uplink].iface
	down := gw.dirs[topology.Downlink].iface
	alloc, err := AllocateRoot(up, down, p.Frame, p.bestEffort, p.rootGap)
	if err != nil {
		return err
	}
	p.Overflow = nil
	for _, dl := range alloc.Overflow {
		for _, id := range p.Tree.NodesAtDepth(dl.Layer) {
			if p.demand[dl.Direction][p.Tree.Index(id)] > 0 {
				p.Overflow = append(p.Overflow, topology.Link{Child: id, Direction: dl.Direction})
			}
		}
	}
	for dl, region := range alloc.Partitions {
		ls := gw.dirs[dl.Direction].At(dl.Layer)
		ls.part, ls.hasPart = region, true
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
		for _, c := range p.node(id).children {
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
	ns := p.node(id)
	st := &ns.dirs[dir]
	ownLayer, _ := p.Tree.LinkLayer(id) //harplint:allow errcheck — id comes from the tree itself
	mark := p.scratch.PushRegions(len(ns.children))
	defer p.scratch.PopRegions(mark)
	split := p.scratch.Regions[mark:]
	for i := range st.Layers {
		ls, layer := &st.Layers[i], st.Base+i
		if !ls.hasPart {
			continue
		}
		if layer == ownLayer {
			if err := p.scheduleOwnLayer(id, dir, ls.part); err != nil {
				return err
			}
			continue
		}
		if err := SplitPartition(ls.part, ns.children, ls.layout, ls.comps, split); err != nil {
			return err
		}
		for slot, off := range ls.layout {
			if off.Placed {
				cl := p.node(ns.children[slot]).dirs[dir].At(layer)
				cl.part, cl.hasPart = split[slot], true
			}
		}
	}
	return nil
}

// scheduleOwnLayer runs RM cell assignment for a node's child links within
// its own-layer partition.
func (p *Plan) scheduleOwnLayer(id topology.NodeID, dir topology.Direction, region schedule.Region) error {
	ns := p.node(id)
	st := &ns.dirs[dir]
	if err := AssignCells(region, p.childLinkDemands(ns, dir), st.runs, &p.scratch.Assign); err != nil {
		return fmt.Errorf("core: scheduling node %d %s: %w", id, dir, err)
	}
	st.runRegion = region
	for _, r := range st.runs {
		if r.Count > 0 {
			p.Static.ScheduleMessages++
		}
	}
	return nil
}

// Partition returns the partition granted to node id's subtree at the given
// layer and direction.
func (p *Plan) Partition(id topology.NodeID, layer int, dir topology.Direction) (schedule.Region, bool) {
	ns := p.lookup(id)
	if ns == nil {
		return schedule.Region{}, false
	}
	return ns.dirs[dir].Part(layer)
}

// InterfaceOf returns the resource interface node id reported in one
// direction.
func (p *Plan) InterfaceOf(id topology.NodeID, dir topology.Direction) (Interface, bool) {
	ns := p.lookup(id)
	if ns == nil {
		return Interface{}, false
	}
	return ns.dirs[dir].iface, true
}

// CellsOf returns the cells currently assigned to a link (nil if none).
func (p *Plan) CellsOf(l topology.Link) []schedule.Cell {
	parent, err := p.Tree.Parent(l.Child)
	if err != nil || parent == topology.None {
		return nil
	}
	ns := p.node(parent)
	st := &ns.dirs[l.Direction]
	slot, _ := ns.slot(l.Child)
	run := st.runs[slot]
	return run.AppendCells(make([]schedule.Cell, 0, run.Count), st.runRegion)
}

// Demand returns the plan's current cell requirement for a link, 0 for a
// link that is not a child link of the tree.
func (p *Plan) Demand(l topology.Link) int {
	if i, ok := p.linkIndex(l); ok {
		return p.demand[l.Direction][i]
	}
	return 0
}

// BuildSchedule materialises the full network schedule from the per-node
// assignments. Overflow links (best-effort mode) carry no cells here; the
// scheduler adapters give them fallback cells.
func (p *Plan) BuildSchedule() (*schedule.Schedule, error) {
	s, err := schedule.NewSchedule(p.Frame)
	if err != nil {
		return nil, err
	}
	for _, id := range p.Tree.Nodes() {
		ns := p.node(id)
		for _, dir := range topology.Directions() {
			st := &ns.dirs[dir]
			for slot, run := range st.runs {
				if run.Count == 0 {
					continue
				}
				p.cells = run.AppendCells(p.cells[:0], st.runRegion)
				if err := s.Assign(topology.Link{Child: ns.children[slot], Direction: dir}, p.cells...); err != nil {
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
		ns := p.node(id)
		for _, dir := range topology.Directions() {
			st := &ns.dirs[dir]
			for i, ls := range st.Layers {
				if ls.hasPart {
					out = append(out, PartitionInfo{Node: id, Layer: st.Base + i, Direction: dir, Region: ls.part})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b PartitionInfo) int {
		return cmp.Or(cmp.Compare(a.Direction, b.Direction), cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Node, b.Node))
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
		// Gateway-level partitions must be pairwise disjoint, read in layer
		// order so the reported pair is deterministic.
		gw := &p.node(topology.GatewayID).dirs[dir]
		for i, a := range gw.Layers {
			for _, b := range gw.Layers[i+1:] {
				if a.hasPart && b.hasPart && a.part.Overlaps(b.part) {
					return fmt.Errorf("core: gateway partitions overlap: %v vs %v", a.part, b.part)
				}
			}
		}
		// Children inside parents, siblings disjoint, at every node.
		for _, id := range p.Tree.Nodes() {
			ns := p.node(id)
			st := &ns.dirs[dir]
			ownLayer, _ := p.Tree.LinkLayer(id) //harplint:allow errcheck — id comes from the tree itself
			for i, ls := range st.Layers {
				layer := st.Base + i
				if !ls.hasPart || layer == ownLayer {
					continue
				}
				var kids []schedule.Region
				for _, c := range ns.children {
					if kr, ok := p.node(c).dirs[dir].Part(layer); ok {
						if !ls.part.ContainsRegion(kr) {
							return fmt.Errorf("core: node %d layer %d: child %d partition %v outside %v",
								id, layer, c, kr, ls.part)
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
			own, hasOwn := st.Part(ownLayer)
			for slot, run := range st.runs {
				if run.Count == 0 {
					continue
				}
				l := topology.Link{Child: ns.children[slot], Direction: dir}
				if !hasOwn {
					return fmt.Errorf("core: node %d schedules %v without a partition", id, l)
				}
				p.cells = run.AppendCells(p.cells[:0], st.runRegion)
				for _, c := range p.cells {
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
