package core

import (
	"fmt"
	"sort"

	"github.com/harpnet/harp/internal/packing"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// The NodeID-map kernels the child-slot kernels replaced, kept verbatim
// (renamed with a ref prefix) only as the reference
// FuzzKernelsMatchMapReference compares against.

// refChildComponent pairs a child subtree root with its component at the layer
// being composed.
type refChildComponent struct {
	Child topology.NodeID
	Comp  Component
}

// refLayout records where each child's component sits inside a composite
// component; it is retained by the composing node and reused verbatim during
// top-down partition allocation (§IV-C).
type refLayout map[topology.NodeID]Offset

// refCompose solves Problem 1 (resource component composition) with the
// two-pass strip-packing strategy of Alg. 1:
//
//  1. pack with the channel budget as the fixed strip width, minimising the
//     slot extent n_s_min (slots are the scarcer resource: they bound
//     latency and carry the half-duplex constraint);
//  2. re-pack with n_s_min as the fixed width, minimising the channel
//     extent.
//
// The skyline heuristic is not monotone, so if the second pass lands on
// more channels than the first pass used, the first pass's (transposed)
// layout is kept instead — the returned composite is never worse than
// either pass.
//
// Empty child components are ignored. The returned layout maps each
// non-empty child to its offset inside the composite.
func refCompose(children []refChildComponent, maxChannels int) (Component, refLayout, error) {
	if maxChannels <= 0 {
		return Component{}, nil, fmt.Errorf("core: non-positive channel budget %d", maxChannels)
	}
	rects := make([]packing.Rect, 0, len(children))
	byID := make(map[int]topology.NodeID, len(children))
	for idx, cc := range children {
		if cc.Comp.Empty() {
			continue
		}
		if cc.Comp.Channels > maxChannels {
			return Component{}, nil, fmt.Errorf("%w: child %d needs %d of %d channels",
				ErrChannelBudget, cc.Child, cc.Comp.Channels, maxChannels)
		}
		// Pass 1 orientation: width = channels, height = slots.
		rects = append(rects, packing.Rect{ID: idx, W: cc.Comp.Channels, H: cc.Comp.Slots})
		byID[idx] = cc.Child
	}
	if len(rects) == 0 {
		return Component{}, refLayout{}, nil
	}

	pass1, err := packing.PackStrip(rects, maxChannels)
	if err != nil {
		return Component{}, nil, err
	}
	minSlots := pass1.H
	// Channels actually used by pass 1 (strip width minus trailing waste).
	pass1Channels := 0
	for _, p := range pass1.Items {
		if edge := p.X + p.W; edge > pass1Channels {
			pass1Channels = edge
		}
	}

	// Pass 2 orientation: width = slots, height = channels.
	rects2 := make([]packing.Rect, len(rects))
	for i, r := range rects {
		rects2[i] = packing.Rect{ID: r.ID, W: r.H, H: r.W}
	}
	pass2, err := packing.PackStrip(rects2, minSlots)
	if err != nil {
		return Component{}, nil, err
	}

	layout := make(refLayout, len(rects))
	var comp Component
	if pass2.H <= pass1Channels {
		comp = Component{Slots: minSlots, Channels: pass2.H}
		for _, p := range pass2.Items {
			layout[byID[p.Rect.ID]] = Offset{Slot: p.X, Channel: p.Y}
		}
	} else {
		// Keep the transposed pass-1 layout.
		comp = Component{Slots: minSlots, Channels: pass1Channels}
		for _, p := range pass1.Items {
			layout[byID[p.Rect.ID]] = Offset{Slot: p.Y, Channel: p.X}
		}
	}
	return comp, layout, nil
}

// refSortedLayoutNodes returns the layout's node IDs in ascending order, for
// deterministic iteration.
func refSortedLayoutNodes(l refLayout) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(l))
	for id := range l {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refSplitPartition derives the child partitions inside a parent partition from
// the composition layout stored when the parent composed the corresponding
// component (§IV-C): each child's component keeps its relative offset, now
// translated by the parent partition's origin.
func refSplitPartition(parent schedule.Region, layout refLayout, comps map[topology.NodeID]Component) (map[topology.NodeID]schedule.Region, error) {
	out := make(map[topology.NodeID]schedule.Region, len(layout))
	for _, child := range refSortedLayoutNodes(layout) {
		off := layout[child]
		comp, ok := comps[child]
		if !ok {
			return nil, fmt.Errorf("core: layout references child %d with no component", child)
		}
		region := comp.Region(parent.Slot+off.Slot, parent.Channel+off.Channel)
		if !parent.ContainsRegion(region) {
			return nil, fmt.Errorf("core: child %d partition %v escapes parent %v", child, region, parent)
		}
		out[child] = region
	}
	return out, nil
}

// refLayoutValid reports whether a committed layout is a consistent placement
// of the given child components inside a slots x channels host: every
// placed child has a component, every component sits fully in bounds, and
// no two components overlap. The adjustment watchdog uses it (under
// harpdebug) to assert that rolling an aborted escalation back really
// lands on a consistent committed state.
func refLayoutValid(slots, channels int, layout refLayout, comps map[topology.NodeID]Component) bool {
	ids := refSortedLayoutNodes(layout)
	for i, id := range ids {
		c, ok := comps[id]
		if !ok {
			return false
		}
		if c.Empty() {
			continue
		}
		off := layout[id]
		if off.Slot < 0 || off.Channel < 0 ||
			off.Slot+c.Slots > slots || off.Channel+c.Channels > channels {
			return false
		}
		for _, other := range ids[:i] {
			oc := comps[other]
			if oc.Empty() {
				continue
			}
			oo := layout[other]
			if off.Slot < oo.Slot+oc.Slots && oo.Slot < off.Slot+c.Slots &&
				off.Channel < oo.Channel+oc.Channels && oo.Channel < off.Channel+c.Channels {
				return false
			}
		}
	}
	return true
}

// refAssignCells performs the distributed schedule generation of §IV-D: the
// node owning partition p (its own-layer partition, shape [n^s, 1]) assigns
// concrete cells to each child link. Links are served in Rate-Monotonic
// order — highest rate (shortest period) first, ties broken by child ID —
// and each link receives a consecutive run of cells, preserving the
// compliant-schedule ordering within the partition.
func refAssignCells(p schedule.Region, demands []LinkDemand) (map[topology.Link][]schedule.Cell, error) {
	total := 0
	for _, d := range demands {
		if d.Cells < 0 {
			return nil, fmt.Errorf("core: negative demand %d on %v", d.Cells, d.Link)
		}
		total += d.Cells
	}
	if total > p.CellCount() {
		return nil, fmt.Errorf("%w: need %d cells, partition %v has %d",
			ErrInfeasible, total, p, p.CellCount())
	}
	order := make([]LinkDemand, len(demands))
	copy(order, demands)
	sort.Slice(order, func(i, j int) bool {
		if order[i].TopRate != order[j].TopRate {
			return order[i].TopRate > order[j].TopRate
		}
		return order[i].Link.Child < order[j].Link.Child
	})
	cells := p.Cells() // slot-major: fills the time dimension first
	out := make(map[topology.Link][]schedule.Cell, len(order))
	next := 0
	for _, d := range order {
		if d.Cells == 0 {
			continue
		}
		out[d.Link] = append([]schedule.Cell(nil), cells[next:next+d.Cells]...)
		next += d.Cells
	}
	return out, nil
}

// refMinimalExtension computes the smallest enlargement of a host component
// that can host child j's grown component while keeping the other children
// where they are (Alg. 2 applied inside a slightly larger box). Following
// Problem 1's priorities, slot growth is minimised first, then channel
// growth. Exported for the distributed agent.
func refMinimalExtension(hostComp Component, layout refLayout, comps map[topology.NodeID]Component, j topology.NodeID, newComp Component, maxChannels int) (Component, refLayout, bool) {
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
			newLayout, _, ok := refAdjustLayout(w, h, layout, comps, j, newComp)
			if ok {
				return Component{Slots: w, Channels: h}, newLayout, true
			}
		}
	}
	return Component{}, nil, false
}

// refAdjustLayout is the node-level entry point to the cost-aware partition
// adjustment (Problem 3 / Alg. 2): given the current layout of child
// components inside a host partition of slots x channels cells, fit child
// j's grown component newComp while moving as few siblings as possible.
// Returns the updated layout and the children whose placement changed; ok
// is false when the increase cannot fit (the caller must escalate). Both
// the centralized Plan and the distributed agents call this.
func refAdjustLayout(slots, channels int, layout refLayout, comps map[topology.NodeID]Component, j topology.NodeID, newComp Component) (refLayout, []topology.NodeID, bool) {
	ids := make([]topology.NodeID, 0, len(comps)+1)
	for _, id := range refSortedCompNodes(comps) {
		if id != j {
			ids = append(ids, id)
		}
	}
	ids = append(ids, j) // j last; adjustPlacements takes its index
	items := make([]refLayoutItem, len(ids))
	for i, id := range ids {
		c := comps[id]
		if id == j {
			c = newComp
		}
		off, present := layout[id]
		items[i] = refLayoutItem{comp: c, off: off, present: present}
	}
	offsets, movedIdx, ok := refAdjustPlacements(slots, channels, items, len(ids)-1)
	if !ok {
		return nil, nil, false
	}
	newLayout := make(refLayout, len(ids))
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

// refReflowRoot lays the gateway's layer partitions out as ordered intervals
// after target's interval is resized to comp, with minimal movement: each
// interval keeps its current origin (and any gap before it) unless the
// preceding intervals now reach past it. parts holds the current partitions
// per direction. It returns, in compliant order, the partitions whose
// region changed — plus target always, because its *internal* layout
// changed even when its interval did not — or ok=false when the intervals
// no longer fit the data sub-frame.
func refReflowRoot(parts [2]map[int]schedule.Region, target DirLayer, comp Component, frame schedule.Slotframe) ([]RootPlacement, bool) {
	comps := make(map[DirLayer]Component)
	for _, d := range topology.Directions() {
		for l, r := range parts[d] {
			comps[DirLayer{Direction: d, Layer: l}] = Component{Slots: r.Slots, Channels: r.Channels}
		}
	}
	comps[target] = comp
	var changed []RootPlacement
	cursor := 0
	for _, k := range refCompliantOrder(comps) {
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

// refRootHost extends the gateway's target layer partition just enough to
// host child cur's grown component, keeping that layer's other children in
// place via Alg. 2 (AdjustLayout runs with the full channel height, since
// root partitions are time-disjoint and own the whole channel dimension of
// their interval). layout and comps are the layer's current composition.
// It returns the layer's new layout and the ReflowRoot placements of the
// widened interval, or ok=false when the increase does not fit.
func refRootHost(parts [2]map[int]schedule.Region, target DirLayer, layout refLayout, comps map[topology.NodeID]Component, cur topology.NodeID, curComp Component, frame schedule.Slotframe) (refLayout, []RootPlacement, bool) {
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
		newLayout, _, ok := refAdjustLayout(width, frame.Channels, layout, comps, cur, curComp)
		if !ok {
			continue
		}
		placements, ok := refReflowRoot(parts, target, Component{Slots: width, Channels: frame.Channels}, frame)
		if !ok {
			return nil, nil, false
		}
		return newLayout, placements, true
	}
	return nil, nil, false
}

// refCompliantOrder returns the root placement order of §IV-C: uplink layers
// deepest-first, then downlink layers shallowest-first. Exported for the
// distributed agent, which re-runs the same placement on root adjustments.
func refCompliantOrder(comps map[DirLayer]Component) []DirLayer {
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

func refSortedCompNodes(m map[topology.NodeID]Component) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refLayoutItem is one sibling in a placement-adjustment instance.
type refLayoutItem struct {
	comp    Component
	off     Offset
	present bool // whether the item currently has a placement
}

// refAdjustPlacements is the cost-aware partition adjustment heuristic
// (Alg. 2): given sibling components inside a width x height parent
// partition, with items[j] resized, find new offsets moving as few siblings
// as possible. It evicts the target first, then progressively the siblings
// closest to the target's old position, re-packing the evicted set into the
// remaining free space with the exact grid packer; the last iteration (all
// siblings evicted) degenerates to the full re-pack of Alg. 2 line 15.
//
// Returns the offsets for all items, the indices of moved items, and
// whether a feasible arrangement was found.
func refAdjustPlacements(width, height int, items []refLayoutItem, j int) ([]Offset, []int, bool) {
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
