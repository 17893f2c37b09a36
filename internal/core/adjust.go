package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/packing"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// Case classifies how a traffic change was absorbed (§V).
type Case int

const (
	// CaseRelease — requirement decreased; cells released locally.
	CaseRelease Case = iota
	// CaseScheduleUpdate — Case 1: enough idle cells in the current
	// partition; only the local schedule changed.
	CaseScheduleUpdate
	// CasePartitionUpdate — Case 2: one or more ancestors adjusted
	// partitions to host the increase.
	CasePartitionUpdate
	// CaseRejected — the increase cannot fit even at the gateway; the
	// demand change was rolled back.
	CaseRejected
)

// String names the adjustment case for reports and logs.
func (c Case) String() string {
	switch c {
	case CaseRelease:
		return "release"
	case CaseScheduleUpdate:
		return "schedule-update"
	case CasePartitionUpdate:
		return "partition-update"
	case CaseRejected:
		return "rejected"
	default:
		return fmt.Sprintf("case(%d)", int(c))
	}
}

// Adjustment reports the cost of handling one traffic change — the
// quantities Table II and Fig. 12 measure.
type Adjustment struct {
	Case Case
	// RequestMessages counts PUT-intf adjustment requests climbing the tree.
	RequestMessages int
	// PartitionMessages counts PUT-part partition updates propagating down.
	PartitionMessages int
	// ScheduleMessages counts cell-assignment notifications to children
	// whose cells changed (not HARP partition-protocol messages).
	ScheduleMessages int
	// LayersClimbed is the number of hops the request travelled upward.
	LayersClimbed int
	// MovedPartitions is the number of partitions whose placement changed.
	MovedPartitions int
}

// TotalMessages returns the HARP protocol message count (requests + grants),
// the "Msg." column of Table II.
func (a *Adjustment) TotalMessages() int { return a.RequestMessages + a.PartitionMessages }

// debugCheck re-validates the whole plan after a dynamic adjustment when
// the package is built with -tags harpdebug. A violation here is a bug in
// the adjustment machinery itself, not a caller error, so it panics rather
// than returning an error the caller could swallow.
func (p *Plan) debugCheck(op string) {
	if !debugChecks {
		return
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("harpdebug: plan invariant violated after %s: %v", op, err))
	}
}

// SetLinkDemand applies a traffic change to one link and performs HARP's
// dynamic partition adjustment (§V): decreases release cells locally;
// increases are absorbed by the parent's partition when it has slack
// (Case 1) or escalate upward with partition adjustments (Case 2). topRate
// is the new highest task rate on the link, used for Rate-Monotonic
// ordering of the updated schedule.
func (p *Plan) SetLinkDemand(l topology.Link, cells int, topRate float64) (*Adjustment, error) {
	parent, err := p.Tree.Parent(l.Child)
	if err != nil {
		return nil, err
	}
	if parent == topology.None {
		return nil, fmt.Errorf("core: link %v has no parent node", l)
	}
	if cells < 0 {
		return nil, fmt.Errorf("core: negative demand %d", cells)
	}
	i, err := p.heldLinkIndex(l)
	if err != nil {
		return nil, err
	}
	demand, rates := p.demand[l.Direction], p.topRate[l.Direction]
	oldCells, oldRate := demand[i], rates[i]
	demand[i], rates[i] = cells, topRate
	adj := &Adjustment{}

	if cells <= oldCells {
		adj.Case = CaseRelease
		if err := p.rescheduleOwn(parent, l.Direction, adj); err != nil {
			return nil, err
		}
		p.debugCheck("SetLinkDemand(release)")
		return adj, nil
	}

	// Increase: absorb locally (Case 1) or escalate (Case 2).
	ok, err := p.ensureOwnCapacity(parent, l.Direction, adj)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Roll back: the network cannot host the increase.
		demand[i], rates[i] = oldCells, oldRate
		adj.Case = CaseRejected
		p.debugCheck("SetLinkDemand(rejected rollback)")
		return adj, nil
	}
	p.debugCheck("SetLinkDemand(increase)")
	return adj, nil
}

// ensureOwnCapacity makes a node's own-layer partition cover the current
// total demand of its child links, rescheduling locally when the partition
// has slack (Case 1) and escalating a grown own-layer component otherwise
// (Case 2). It is shared by traffic changes (SetLinkDemand) and topology
// changes (Reparent, where a new child link appears without its demand
// value changing).
func (p *Plan) ensureOwnCapacity(id topology.NodeID, dir topology.Direction, adj *Adjustment) (bool, error) {
	layer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return false, err
	}
	ns := p.node(id)
	need := p.ownDemand(ns, dir)
	if own, ok := ns.dirs[dir].Part(layer); ok && need <= own.CellCount() {
		adj.Case = CaseScheduleUpdate
		return true, p.rescheduleOwn(id, dir, adj)
	}
	ok, err := p.escalate(id, dir, layer, Component{Slots: need, Channels: 1}, adj)
	if err != nil || !ok {
		return false, err
	}
	adj.Case = CasePartitionUpdate
	return true, nil
}

// pendingRecompose records a recomposition computed while climbing, to be
// committed only once an ancestor grants the space.
type pendingRecompose struct {
	node   topology.NodeID
	comp   Component
	layout Layout
	comps  []Component
}

// escalate walks the adjustment request upward from `cur`, whose component
// at `layer` grew to curComp, until some ancestor can host it (Problem 2 +
// Alg. 2), then commits and propagates the updated partitions downward.
// When even the gateway's layer partition cannot host the increase, the
// gateway extends that partition in place (RootHost), shifting the other
// layer partitions only as far as the compliant interval order requires.
func (p *Plan) escalate(cur topology.NodeID, dir topology.Direction, layer int, curComp Component, adj *Adjustment) (bool, error) {
	var pending []pendingRecompose
	for {
		if cur == topology.GatewayID {
			// The requesting link's parent is the gateway itself: its
			// own-layer partition (a single-channel strip) must widen.
			return p.rootWiden(dir, layer, curComp, adj)
		}
		host, err := p.Tree.Parent(cur)
		if err != nil {
			return false, err
		}
		adj.RequestMessages++
		adj.LayersClimbed++

		hs := p.node(host)
		slot, _ := hs.slot(cur)
		ls := hs.dirs[dir].At(layer)
		comps := ls.sizedComps(len(hs.children))
		hostRegion := ls.part
		if ls.hasPart {
			newLayout, moved, fits := AdjustLayout(hostRegion.Slots, hostRegion.Channels, ls.layout, comps, slot, curComp)
			if fits {
				p.commitPending(dir, layer, pending)
				comps[slot] = curComp
				ls.layout = newLayout
				// Propagate every moved child partition.
				for _, m := range moved {
					off := newLayout[m]
					region := comps[m].Region(hostRegion.Slot+off.Slot, hostRegion.Channel+off.Channel)
					adj.PartitionMessages++
					adj.MovedPartitions++
					if err := p.propagateRegion(hs.children[m], dir, layer, region, adj); err != nil {
						return false, err
					}
				}
				return true, nil
			}
		}
		if host == topology.GatewayID {
			// The gateway is the end of the line: extend its layer
			// partition rather than recomposing the whole layer.
			return p.rootHost(dir, layer, slot, curComp, pending, adj)
		}
		// The host cannot fit the increase: grow its component at this
		// layer just enough to host it — keeping the sibling layout
		// intact so the eventual commit only re-signals the requesting
		// chain — and escalate the enlarged component.
		hostComp := Component{Slots: hostRegion.Slots, Channels: hostRegion.Channels}
		comp, layout, ok := MinimalExtension(hostComp, ls.layout, comps, slot, curComp, p.Frame.Channels)
		if !ok {
			return false, nil
		}
		merged := slices.Clone(comps)
		merged[slot] = curComp
		pending = append(pending, pendingRecompose{node: host, comp: comp, layout: layout, comps: merged})
		cur = host
		curComp = comp
	}
}

// MinimalExtension computes the smallest enlargement of a host component
// that can host child slot j's grown component while keeping the other
// children where they are (Alg. 2 applied inside a slightly larger box).
// Following Problem 1's priorities, slot growth is minimised first, then
// channel growth. layout and comps are the host's composition by child
// slot. Exported for the distributed agent.
func MinimalExtension(hostComp Component, layout Layout, comps []Component, j int, newComp Component, maxChannels int) (Component, Layout, bool) {
	if newComp.Channels > maxChannels {
		return Component{}, nil, false
	}
	// Upper bound for the slot search: everything side by side.
	maxSlots := newComp.Slots
	area := newComp.Cells()
	for i, c := range comps {
		if i == j {
			continue
		}
		maxSlots += c.Slots
		area += c.Cells()
	}
	minW := hostComp.Slots
	if newComp.Slots > minW {
		minW = newComp.Slots
	}
	minH := hostComp.Channels
	if newComp.Channels > minH {
		minH = newComp.Channels
	}
	if maxSlots < minW {
		// The side-by-side bound can sit below the host's existing width;
		// the search must still try the current dimensions.
		maxSlots = minW
	}
	for w := minW; w <= maxSlots; w++ {
		for h := minH; h <= maxChannels; h++ {
			if w*h < area {
				continue
			}
			newLayout, _, ok := AdjustLayout(w, h, layout, comps, j, newComp)
			if ok {
				return Component{Slots: w, Channels: h}, newLayout, true
			}
		}
	}
	return Component{}, nil, false
}

// AdjustLayout is the node-level entry point to the cost-aware partition
// adjustment (Problem 3 / Alg. 2): given the current layout of child
// components inside a host partition of slots x channels cells, fit child
// slot j's grown component newComp while moving as few siblings as
// possible. layout and comps are by child slot, and j indexes them.
// Returns the updated layout and the slots whose placement changed, in
// ascending order; ok is false when the increase cannot fit (the caller
// must escalate). Both the centralized Plan and the distributed agents call
// this.
func AdjustLayout(slots, channels int, layout Layout, comps []Component, j int, newComp Component) (Layout, []int, bool) {
	items := make([]layoutItem, len(comps))
	for i, c := range comps {
		if i == j {
			c = newComp
		}
		items[i] = layoutItem{comp: c, off: layout.At(i)}
	}
	offsets, moved, ok := adjustPlacements(slots, channels, items, j)
	if !ok {
		return nil, nil, false
	}
	newLayout := make(Layout, len(comps))
	for i, it := range items {
		if it.comp.Empty() {
			continue
		}
		newLayout[i] = Offset{Slot: offsets[i].Slot, Channel: offsets[i].Channel, Placed: true}
	}
	return newLayout, moved, true
}

// commitPending installs the recompositions computed on the way up.
func (p *Plan) commitPending(dir topology.Direction, layer int, pending []pendingRecompose) {
	for _, e := range pending {
		st := &p.node(e.node).dirs[dir]
		ls := st.At(layer)
		ls.comps, ls.layout = e.comps, e.layout
		// Update the node's interface component so future adjustments see
		// the grown requirement.
		idx := layer - st.iface.FirstLayer
		if idx >= 0 && idx < len(st.iface.Comps) {
			st.iface.Comps[idx] = e.comp
		}
	}
}

// Root-level adjustment. The gateway cannot use the free-form Alg. 2
// packing across layers: links at adjacent layers share the node between
// them, so layer partitions overlapping in time would violate the
// half-duplex constraint, and placing layers out of routing order would
// cost every packet a slotframe per out-of-order hop. The gateway therefore
// treats its layer partitions as an *ordered sequence of slot intervals*
// (the compliant order of §IV-C): a grown layer extends in place — first
// into unused channel space and the gap to the next interval — and later
// intervals shift right only as far as the growth actually requires
// (ReflowRoot), so untouched layers keep their partitions and generate no
// messages. ReflowRoot and RootHost are pure and shared by the centralized
// Plan and the gateway agent; each applies the returned placements to its
// own state, and only when the adjustment fits.

// LayerRegions is one direction's gateway layer partitions, the shape the
// root kernels take: Regions[i] is layer Base+i's partition, and a region
// with no slots is an absent one.
type LayerRegions struct {
	Base    int
	Regions []schedule.Region
}

// At returns layer l's partition, the zero region when it is absent.
func (lr LayerRegions) At(l int) schedule.Region {
	if i := l - lr.Base; i >= 0 && i < len(lr.Regions) {
		return lr.Regions[i]
	}
	return schedule.Region{}
}

// RootPlacement is one gateway layer partition a root adjustment must
// (re-)install.
type RootPlacement struct {
	Key    DirLayer
	Region schedule.Region
}

// ReflowRoot lays the gateway's layer partitions out as ordered intervals
// after target's interval is resized to comp, with minimal movement: each
// interval keeps its current origin (and any gap before it) unless the
// preceding intervals now reach past it. parts holds the current partitions
// per direction. It returns, in compliant order, the partitions whose
// region changed — plus target always, because its *internal* layout
// changed even when its interval did not — or ok=false when the intervals
// no longer fit the data sub-frame.
func ReflowRoot(parts [2]LayerRegions, target DirLayer, comp Component, frame schedule.Slotframe) ([]RootPlacement, bool) {
	sized := resized(parts, target, comp)
	var changed []RootPlacement
	cursor := 0
	for _, k := range CompliantOrder(sized) {
		r := sized[k.Direction].At(k.Layer)
		old := parts[k.Direction].At(k.Layer)
		had := old.Slots > 0
		origin := cursor
		if had && old.Slot >= cursor && old.Slot+r.Slots <= frame.DataSlots {
			origin = old.Slot // keep position; preserve any gap before it
		}
		if origin+r.Slots > frame.DataSlots {
			return nil, false
		}
		region := schedule.Region{Slot: origin, Channel: 0, Slots: r.Slots, Channels: r.Channels}
		cursor = origin + r.Slots
		if !had || old != region || k == target {
			changed = append(changed, RootPlacement{Key: k, Region: region})
		}
	}
	return changed, true
}

// resized returns parts with target's partition replaced by a region of
// comp's size at the origin. The target direction's regions are copied
// (and widened to cover target), so parts itself is not written.
func resized(parts [2]LayerRegions, target DirLayer, comp Component) [2]LayerRegions {
	lr := parts[target.Direction]
	lo, hi := target.Layer, target.Layer+1
	if len(lr.Regions) > 0 {
		lo, hi = min(lo, lr.Base), max(hi, lr.Base+len(lr.Regions))
	}
	regs := make([]schedule.Region, hi-lo)
	if len(lr.Regions) > 0 {
		copy(regs[lr.Base-lo:], lr.Regions)
	}
	regs[target.Layer-lo] = comp.Region(0, 0)
	parts[target.Direction] = LayerRegions{Base: lo, Regions: regs}
	return parts
}

// RootHost extends the gateway's target layer partition just enough to
// host child slot cur's grown component, keeping that layer's other
// children in place via Alg. 2 (AdjustLayout runs with the full channel
// height, since root partitions are time-disjoint and own the whole
// channel dimension of their interval). layout and comps are the layer's
// current composition by child slot. It returns the layer's new layout and
// the ReflowRoot placements of the widened interval, or ok=false when the
// increase does not fit.
func RootHost(parts [2]LayerRegions, target DirLayer, layout Layout, comps []Component, cur int, curComp Component, frame schedule.Slotframe) (Layout, []RootPlacement, bool) {
	if curComp.Channels > frame.Channels {
		return nil, nil, false
	}
	// Width budget: everything the other intervals do not need.
	baseWidth := parts[target.Direction].At(target.Layer).Slots
	maxWidth := frame.DataSlots + baseWidth
	for _, lr := range parts {
		for _, r := range lr.Regions {
			maxWidth -= r.Slots
		}
	}
	// Lower bound from area, so the search starts near the answer.
	area := curComp.Cells()
	for i, c := range comps {
		if i != cur {
			area += c.Cells()
		}
	}
	start := (area + frame.Channels - 1) / frame.Channels
	if start < baseWidth {
		start = baseWidth
	}
	if start < curComp.Slots {
		start = curComp.Slots
	}
	for width := start; width <= maxWidth; width++ {
		newLayout, _, ok := AdjustLayout(width, frame.Channels, layout, comps, cur, curComp)
		if !ok {
			continue
		}
		placements, ok := ReflowRoot(parts, target, Component{Slots: width, Channels: frame.Channels}, frame)
		if !ok {
			return nil, nil, false
		}
		return newLayout, placements, true
	}
	return nil, nil, false
}

// rootParts returns the gateway's current layer partitions per direction,
// in the plan's scratch.
func (p *Plan) rootParts() [2]LayerRegions {
	gw := p.node(topology.GatewayID)
	for d := range gw.dirs {
		p.scratch.Root[d] = gw.dirs[d].Regions(p.scratch.Root[d].Regions)
	}
	return p.scratch.Root
}

// applyRoot installs root placements and propagates them down (unchanged
// descendants are skipped).
func (p *Plan) applyRoot(placements []RootPlacement, adj *Adjustment) error {
	for _, pl := range placements {
		adj.MovedPartitions++
		if err := p.propagateRegion(topology.GatewayID, pl.Key.Direction, pl.Key.Layer, pl.Region, adj); err != nil {
			return err
		}
	}
	return nil
}

// rootWiden grows the gateway's *own-layer* partition (a single-channel
// strip) to the requested width.
func (p *Plan) rootWiden(dir topology.Direction, layer int, comp Component, adj *Adjustment) (bool, error) {
	placements, ok := ReflowRoot(p.rootParts(), DirLayer{Direction: dir, Layer: layer}, comp, p.Frame)
	if !ok {
		return false, nil
	}
	gw := &p.node(topology.GatewayID).dirs[dir]
	if idx := layer - gw.iface.FirstLayer; idx >= 0 && idx < len(gw.iface.Comps) {
		gw.iface.Comps[idx] = comp
	}
	return true, p.applyRoot(placements, adj)
}

// rootHost extends the gateway's layer partition to host the grown
// component of the child at slot, committing the recompositions pending
// below it.
func (p *Plan) rootHost(dir topology.Direction, layer, slot int, curComp Component, pending []pendingRecompose, adj *Adjustment) (bool, error) {
	gw := p.node(topology.GatewayID)
	ls := gw.dirs[dir].At(layer)
	comps := ls.sizedComps(len(gw.children))
	newLayout, placements, ok := RootHost(p.rootParts(), DirLayer{Direction: dir, Layer: layer},
		ls.layout, comps, slot, curComp, p.Frame)
	if !ok {
		return false, nil
	}
	p.commitPending(dir, layer, pending)
	comps[slot] = curComp
	ls.layout = newLayout
	return true, p.applyRoot(placements, adj)
}

// CompliantOrder returns the root placement order of §IV-C over the
// partitions parts holds: uplink layers deepest-first, then downlink layers
// shallowest-first. Absent layers are left out.
func CompliantOrder(parts [2]LayerRegions) []DirLayer {
	out := make([]DirLayer, 0, len(parts[topology.Uplink].Regions)+len(parts[topology.Downlink].Regions))
	up := parts[topology.Uplink]
	for i := len(up.Regions) - 1; i >= 0; i-- {
		if up.Regions[i].Slots > 0 {
			out = append(out, DirLayer{Direction: topology.Uplink, Layer: up.Base + i})
		}
	}
	down := parts[topology.Downlink]
	for i, r := range down.Regions {
		if r.Slots > 0 {
			out = append(out, DirLayer{Direction: topology.Downlink, Layer: down.Base + i})
		}
	}
	return out
}

// propagateRegion installs a new partition at (node, layer) and pushes the
// change down: re-splitting deeper layers through the stored layouts, or
// re-running RM assignment when the layer is the node's own link layer.
// Each call splits into its own frame on the plan's region stack.
func (p *Plan) propagateRegion(id topology.NodeID, dir topology.Direction, layer int, region schedule.Region, adj *Adjustment) error {
	ns := p.node(id)
	ls := ns.dirs[dir].At(layer)
	ls.part, ls.hasPart = region, true
	ownLayer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return err
	}
	if layer == ownLayer {
		return p.rescheduleOwn(id, dir, adj)
	}
	mark := p.scratch.PushRegions(len(ns.children))
	defer p.scratch.PopRegions(mark)
	if err := SplitPartition(region, ns.children, ls.layout, ls.comps, p.scratch.Regions[mark:]); err != nil {
		return err
	}
	for slot, off := range ls.layout {
		if !off.Placed {
			continue
		}
		// Children whose absolute region is unchanged need no update (and
		// none of their descendants move either). The frame is re-read
		// each time: a deeper frame may have moved the stack.
		r, child := p.scratch.Regions[mark+slot], ns.children[slot]
		if prev, ok := p.node(child).dirs[dir].Part(layer); ok && prev == r {
			continue
		}
		adj.PartitionMessages++
		adj.MovedPartitions++
		if err := p.propagateRegion(child, dir, layer, r, adj); err != nil {
			return err
		}
	}
	return nil
}

// rescheduleOwn re-runs RM assignment for a node's own-layer links and
// counts a schedule message for every child link whose cell set changed.
func (p *Plan) rescheduleOwn(id topology.NodeID, dir topology.Direction, adj *Adjustment) error {
	ns := p.node(id)
	st := &ns.dirs[dir]
	ownLayer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return err
	}
	region, ok := st.Part(ownLayer)
	demands := p.childLinkDemands(ns, dir)
	if !ok {
		if p.ownDemand(ns, dir) == 0 {
			clear(st.runs)
			return nil
		}
		return fmt.Errorf("core: node %d has demand but no %s own-layer partition", id, dir)
	}
	runs := p.scratch.RunSlots(len(demands))
	if err := AssignCells(region, demands, runs, &p.scratch.Assign); err != nil {
		return err
	}
	// A link whose cells changed is notified, released links included.
	for slot, r := range runs {
		p.cells = r.AppendCells(p.cells[:0], region)
		if !st.runs[slot].Matches(st.runRegion, p.cells) {
			adj.ScheduleMessages++
		}
	}
	copy(st.runs, runs)
	st.runRegion = region
	return nil
}

// layoutItem is one sibling in a placement-adjustment instance; off.Placed
// marks whether it currently has a placement.
type layoutItem struct {
	comp Component
	off  Offset
}

// compareSiblings orders eviction candidates nearest to the target's old
// position first, ties by index.
func compareSiblings(a, b sibling) int {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.idx, b.idx))
}

// sibling is an eviction candidate: an item index and its distance to the
// target's old position.
type sibling struct {
	idx  int
	dist int
}

// adjustPlacements is the cost-aware partition adjustment heuristic
// (Alg. 2): given sibling components inside a width x height parent
// partition, with items[j] resized, find new offsets moving as few siblings
// as possible. It evicts the target first, then progressively the siblings
// closest to the target's old position, re-packing the evicted set into the
// remaining free space with the exact grid packer; the last iteration (all
// siblings evicted) degenerates to the full re-pack of Alg. 2 line 15.
//
// Returns the offsets for all items, the indices of moved items, and
// whether a feasible arrangement was found.
func adjustPlacements(width, height int, items []layoutItem, j int) ([]Offset, []int, bool) {
	if width <= 0 || height <= 0 || j < 0 || j >= len(items) {
		return nil, nil, false
	}
	target := items[j]
	if target.comp.Empty() {
		// Shrinking to nothing: trivially feasible, nothing moves.
		offsets := make([]Offset, len(items))
		for i, it := range items {
			offsets[i] = it.off
		}
		return offsets, nil, true
	}
	targetRegion := target.comp.Region(target.off.Slot, target.off.Channel)

	// Sibling eviction order: nearest to the target's old position first.
	var siblings []sibling
	for i, it := range items {
		if i == j || it.comp.Empty() || !it.off.Placed {
			continue
		}
		r := it.comp.Region(it.off.Slot, it.off.Channel)
		siblings = append(siblings, sibling{idx: i, dist: targetRegion.Distance(r)})
	}
	slices.SortFunc(siblings, compareSiblings)

	// The packer breaks ties between equal rectangles by ID: the target
	// packs under ID len(items), after every sibling.
	rectID := func(idx int) int {
		if idx == j {
			return len(items)
		}
		return idx
	}
	for evict := 0; evict <= len(siblings); evict++ {
		grid, err := packing.NewGrid(width, height)
		if err != nil {
			return nil, nil, false
		}
		obstaclesOK := true
		for _, s := range siblings[evict:] {
			it := items[s.idx]
			if err := grid.AddObstacle(it.off.Slot, it.off.Channel, it.comp.Slots, it.comp.Channels); err != nil {
				obstaclesOK = false
				break
			}
		}
		if !obstaclesOK {
			continue
		}
		rects := make([]packing.Rect, 0, evict+1)
		rects = append(rects, packing.Rect{ID: rectID(j), W: target.comp.Slots, H: target.comp.Channels})
		for _, s := range siblings[:evict] {
			c := items[s.idx].comp
			rects = append(rects, packing.Rect{ID: s.idx, W: c.Slots, H: c.Channels})
		}
		placements, err := grid.PackFreeSpace(rects)
		if err != nil {
			continue
		}
		offsets := make([]Offset, len(items))
		for i, it := range items {
			offsets[i] = it.off
		}
		var moved []int
		for _, pl := range placements {
			idx := pl.Rect.ID
			if idx == len(items) {
				idx = j
			}
			newOff := Offset{Slot: pl.X, Channel: pl.Y, Placed: true}
			if newOff != items[idx].off || idx == j {
				moved = append(moved, idx)
			}
			offsets[idx] = newOff
		}
		slices.Sort(moved)
		return offsets, moved, true
	}
	return nil, nil, false
}
