package core

import (
	"fmt"
	"sort"

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
	oldCells, oldRate := p.demand[l], p.topRate[l]
	p.demand[l] = cells
	p.topRate[l] = topRate
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
		p.demand[l] = oldCells
		p.topRate[l] = oldRate
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
	need := 0
	for _, d := range p.childLinkDemands(id, dir) {
		need += d.Cells
	}
	if own, ok := p.nodes[id].dir(dir).parts[layer]; ok && need <= own.CellCount() {
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
	comps  map[topology.NodeID]Component
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

		hostState := p.nodes[host].dir(dir)
		hostRegion, hasRegion := hostState.parts[layer]
		if hasRegion {
			newLayout, moved, fits := p.tryHost(hostRegion, hostState, layer, cur, curComp)
			if fits {
				p.commitPending(dir, layer, pending)
				if hostState.childComps[layer] == nil {
					hostState.childComps[layer] = make(map[topology.NodeID]Component)
				}
				hostState.childComps[layer][cur] = curComp
				hostState.layouts[layer] = newLayout
				// Propagate every moved child partition.
				for _, m := range moved {
					comp := hostState.childComps[layer][m]
					off := newLayout[m]
					region := comp.Region(hostRegion.Slot+off.Slot, hostRegion.Channel+off.Channel)
					adj.PartitionMessages++
					adj.MovedPartitions++
					if err := p.propagateRegion(m, dir, layer, region, adj); err != nil {
						return false, err
					}
				}
				return true, nil
			}
		}
		if host == topology.GatewayID {
			// The gateway is the end of the line: extend its layer
			// partition rather than recomposing the whole layer.
			return p.rootHost(dir, layer, cur, curComp, pending, adj)
		}
		// The host cannot fit the increase: grow its component at this
		// layer just enough to host it — keeping the sibling layout
		// intact so the eventual commit only re-signals the requesting
		// chain — and escalate the enlarged component.
		merged := make(map[topology.NodeID]Component, len(hostState.childComps[layer])+1)
		for id, c := range hostState.childComps[layer] {
			merged[id] = c
		}
		merged[cur] = curComp
		hostComp := Component{Slots: hostRegion.Slots, Channels: hostRegion.Channels}
		comp, layout, ok := MinimalExtension(hostComp, hostState.layouts[layer], hostState.childComps[layer], cur, curComp, p.Frame.Channels)
		if !ok {
			return false, nil
		}
		pending = append(pending, pendingRecompose{node: host, comp: comp, layout: layout, comps: merged})
		cur = host
		curComp = comp
	}
}

// MinimalExtension computes the smallest enlargement of a host component
// that can host child j's grown component while keeping the other children
// where they are (Alg. 2 applied inside a slightly larger box). Following
// Problem 1's priorities, slot growth is minimised first, then channel
// growth. Exported for the distributed agent.
func MinimalExtension(hostComp Component, layout Layout, comps map[topology.NodeID]Component, j topology.NodeID, newComp Component, maxChannels int) (Component, Layout, bool) {
	if newComp.Channels > maxChannels {
		return Component{}, nil, false
	}
	// Upper bound for the slot search: everything side by side.
	maxSlots := newComp.Slots
	area := newComp.Cells()
	for id, c := range comps {
		if id == j {
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

// tryHost runs the feasibility test and Alg. 2 for hosting an increased
// child component inside a host partition. Returns the new layout and the
// IDs of moved children on success.
func (p *Plan) tryHost(hostRegion schedule.Region, hostState *dirState, layer int, j topology.NodeID, newComp Component) (Layout, []topology.NodeID, bool) {
	return AdjustLayout(hostRegion.Slots, hostRegion.Channels,
		hostState.layouts[layer], hostState.childComps[layer], j, newComp)
}

// AdjustLayout is the node-level entry point to the cost-aware partition
// adjustment (Problem 3 / Alg. 2): given the current layout of child
// components inside a host partition of slots x channels cells, fit child
// j's grown component newComp while moving as few siblings as possible.
// Returns the updated layout and the children whose placement changed; ok
// is false when the increase cannot fit (the caller must escalate). Both
// the centralized Plan and the distributed agents call this.
func AdjustLayout(slots, channels int, layout Layout, comps map[topology.NodeID]Component, j topology.NodeID, newComp Component) (Layout, []topology.NodeID, bool) {
	ids := make([]topology.NodeID, 0, len(comps)+1)
	for _, id := range sortedCompNodes(comps) {
		if id != j {
			ids = append(ids, id)
		}
	}
	ids = append(ids, j) // j last; adjustPlacements takes its index
	items := make([]layoutItem, len(ids))
	for i, id := range ids {
		c := comps[id]
		if id == j {
			c = newComp
		}
		off, present := layout[id]
		items[i] = layoutItem{comp: c, off: off, present: present}
	}
	offsets, movedIdx, ok := adjustPlacements(slots, channels, items, len(ids)-1)
	if !ok {
		return nil, nil, false
	}
	newLayout := make(Layout, len(ids))
	for i, id := range ids {
		if items[i].comp.Empty() {
			continue
		}
		newLayout[id] = offsets[i]
	}
	moved := make([]topology.NodeID, 0, len(movedIdx))
	for _, i := range movedIdx {
		moved = append(moved, ids[i])
	}
	sort.Slice(moved, func(a, b int) bool { return moved[a] < moved[b] })
	return newLayout, moved, true
}

// commitPending installs the recompositions computed on the way up.
func (p *Plan) commitPending(dir topology.Direction, layer int, pending []pendingRecompose) {
	for _, e := range pending {
		st := p.nodes[e.node].dir(dir)
		st.childComps[layer] = e.comps
		st.layouts[layer] = e.layout
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
func ReflowRoot(parts [2]map[int]schedule.Region, target DirLayer, comp Component, frame schedule.Slotframe) ([]RootPlacement, bool) {
	comps := make(map[DirLayer]Component)
	for _, d := range topology.Directions() {
		for l, r := range parts[d] {
			comps[DirLayer{Direction: d, Layer: l}] = Component{Slots: r.Slots, Channels: r.Channels}
		}
	}
	comps[target] = comp
	var changed []RootPlacement
	cursor := 0
	for _, k := range CompliantOrder(comps) {
		c := comps[k]
		if c.Slots == 0 {
			continue
		}
		old, had := parts[k.Direction][k.Layer]
		origin := cursor
		if had && old.Slot >= cursor && old.Slot+c.Slots <= frame.DataSlots {
			origin = old.Slot // keep position; preserve any gap before it
		}
		if origin+c.Slots > frame.DataSlots {
			return nil, false
		}
		region := schedule.Region{Slot: origin, Channel: 0, Slots: c.Slots, Channels: c.Channels}
		cursor = origin + c.Slots
		if !had || old != region || k == target {
			changed = append(changed, RootPlacement{Key: k, Region: region})
		}
	}
	return changed, true
}

// RootHost extends the gateway's target layer partition just enough to
// host child cur's grown component, keeping that layer's other children in
// place via Alg. 2 (AdjustLayout runs with the full channel height, since
// root partitions are time-disjoint and own the whole channel dimension of
// their interval). layout and comps are the layer's current composition.
// It returns the layer's new layout and the ReflowRoot placements of the
// widened interval, or ok=false when the increase does not fit.
func RootHost(parts [2]map[int]schedule.Region, target DirLayer, layout Layout, comps map[topology.NodeID]Component, cur topology.NodeID, curComp Component, frame schedule.Slotframe) (Layout, []RootPlacement, bool) {
	if curComp.Channels > frame.Channels {
		return nil, nil, false
	}
	// Width budget: everything the other intervals do not need.
	baseWidth := parts[target.Direction][target.Layer].Slots
	maxWidth := frame.DataSlots + baseWidth
	for _, d := range topology.Directions() {
		for _, r := range parts[d] {
			maxWidth -= r.Slots
		}
	}
	// Lower bound from area, so the search starts near the answer.
	area := curComp.Cells()
	for id, c := range comps {
		if id != cur {
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

// rootParts returns the gateway's current layer partitions per direction.
func (p *Plan) rootParts() [2]map[int]schedule.Region {
	gw := p.nodes[topology.GatewayID]
	return [2]map[int]schedule.Region{gw.dir(topology.Uplink).parts, gw.dir(topology.Downlink).parts}
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
	gw := p.nodes[topology.GatewayID].dir(dir)
	if idx := layer - gw.iface.FirstLayer; idx >= 0 && idx < len(gw.iface.Comps) {
		gw.iface.Comps[idx] = comp
	}
	return true, p.applyRoot(placements, adj)
}

// rootHost extends the gateway's layer partition to host a grown child
// component, committing the recompositions pending below it.
func (p *Plan) rootHost(dir topology.Direction, layer int, cur topology.NodeID, curComp Component, pending []pendingRecompose, adj *Adjustment) (bool, error) {
	gw := p.nodes[topology.GatewayID].dir(dir)
	newLayout, placements, ok := RootHost(p.rootParts(), DirLayer{Direction: dir, Layer: layer},
		gw.layouts[layer], gw.childComps[layer], cur, curComp, p.Frame)
	if !ok {
		return false, nil
	}
	p.commitPending(dir, layer, pending)
	if gw.childComps[layer] == nil {
		gw.childComps[layer] = make(map[topology.NodeID]Component)
	}
	gw.childComps[layer][cur] = curComp
	gw.layouts[layer] = newLayout
	return true, p.applyRoot(placements, adj)
}

// CompliantOrder returns the root placement order of §IV-C: uplink layers
// deepest-first, then downlink layers shallowest-first. Exported for the
// distributed agent, which re-runs the same placement on root adjustments.
func CompliantOrder(comps map[DirLayer]Component) []DirLayer {
	var up, down []int
	for k := range comps {
		if k.Direction == topology.Uplink {
			up = append(up, k.Layer)
		} else {
			down = append(down, k.Layer)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(up)))
	sort.Ints(down)
	out := make([]DirLayer, 0, len(up)+len(down))
	for _, l := range up {
		out = append(out, DirLayer{Direction: topology.Uplink, Layer: l})
	}
	for _, l := range down {
		out = append(out, DirLayer{Direction: topology.Downlink, Layer: l})
	}
	return out
}

// propagateRegion installs a new partition at (node, layer) and pushes the
// change down: re-splitting deeper layers through the stored layouts, or
// re-running RM assignment when the layer is the node's own link layer.
func (p *Plan) propagateRegion(id topology.NodeID, dir topology.Direction, layer int, region schedule.Region, adj *Adjustment) error {
	st := p.nodes[id].dir(dir)
	st.parts[layer] = region
	ownLayer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return err
	}
	if layer == ownLayer {
		return p.rescheduleOwn(id, dir, adj)
	}
	split, err := SplitPartition(region, st.layouts[layer], st.childComps[layer])
	if err != nil {
		return err
	}
	for _, child := range sortedRegionNodes(split) {
		// Children whose absolute region is unchanged need no update (and
		// none of their descendants move either).
		if prev, ok := p.nodes[child].dir(dir).parts[layer]; ok && prev == split[child] {
			continue
		}
		adj.PartitionMessages++
		adj.MovedPartitions++
		if err := p.propagateRegion(child, dir, layer, split[child], adj); err != nil {
			return err
		}
	}
	return nil
}

// rescheduleOwn re-runs RM assignment for a node's own-layer links and
// counts a schedule message for every child link whose cell set changed.
func (p *Plan) rescheduleOwn(id topology.NodeID, dir topology.Direction, adj *Adjustment) error {
	st := p.nodes[id].dir(dir)
	ownLayer, err := p.Tree.LinkLayer(id)
	if err != nil {
		return err
	}
	region, ok := st.parts[ownLayer]
	demands := p.childLinkDemands(id, dir)
	if !ok {
		total := 0
		for _, d := range demands {
			total += d.Cells
		}
		if total == 0 {
			st.assignment = make(map[topology.Link][]schedule.Cell)
			return nil
		}
		return fmt.Errorf("core: node %d has demand but no %s own-layer partition", id, dir)
	}
	assignment, err := AssignCells(region, demands)
	if err != nil {
		return err
	}
	for l, cells := range assignment {
		if !cellsEqual(st.assignment[l], cells) {
			adj.ScheduleMessages++
		}
	}
	for l := range st.assignment {
		if _, still := assignment[l]; !still {
			adj.ScheduleMessages++ // released links also get notified
		}
	}
	st.assignment = assignment
	return nil
}

func cellsEqual(a, b []schedule.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCompNodes(m map[topology.NodeID]Component) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedRegionNodes(m map[topology.NodeID]schedule.Region) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// layoutItem is one sibling in a placement-adjustment instance.
type layoutItem struct {
	comp    Component
	off     Offset
	present bool // whether the item currently has a placement
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
	type sibling struct {
		idx  int
		dist int
	}
	var siblings []sibling
	for i, it := range items {
		if i == j || it.comp.Empty() || !it.present {
			continue
		}
		r := it.comp.Region(it.off.Slot, it.off.Channel)
		siblings = append(siblings, sibling{idx: i, dist: targetRegion.Distance(r)})
	}
	sort.Slice(siblings, func(a, b int) bool {
		if siblings[a].dist != siblings[b].dist {
			return siblings[a].dist < siblings[b].dist
		}
		return siblings[a].idx < siblings[b].idx
	})

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
		evicted := []int{j}
		for _, s := range siblings[:evict] {
			evicted = append(evicted, s.idx)
		}
		rects := make([]packing.Rect, len(evicted))
		for k, idx := range evicted {
			c := items[idx].comp
			if idx == j {
				c = target.comp
			}
			rects[k] = packing.Rect{ID: idx, W: c.Slots, H: c.Channels}
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
			newOff := Offset{Slot: pl.X, Channel: pl.Y}
			if !items[idx].present || newOff != items[idx].off || idx == j {
				moved = append(moved, idx)
			}
			offsets[idx] = newOff
		}
		sort.Ints(moved)
		return offsets, moved, true
	}
	return nil, nil, false
}
