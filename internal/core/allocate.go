package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// ErrInfeasible is returned when the data sub-frame cannot hold the
// network's resource requirements (too few slots or channels).
var ErrInfeasible = errors.New("core: resource requirements exceed the data sub-frame")

// DirLayer indexes a gateway super-partition slice: one direction at one
// layer.
type DirLayer struct {
	Direction topology.Direction
	Layer     int
}

// RootAllocation is the gateway's placement of its interface components
// into the slotframe's data sub-frame.
type RootAllocation struct {
	// Partitions holds the placed region per direction and layer.
	Partitions map[DirLayer]schedule.Region
	// Overflow lists the (direction, layer) components that did not fit —
	// empty in feasible networks, non-empty in the under-provisioned
	// regimes of Fig. 11(b) where HARP degrades gracefully.
	Overflow []DirLayer
}

// AllocateRoot places the gateway's uplink and downlink interfaces into the
// data sub-frame following the routing-path-compliant order of §IV-C: the
// slotframe splits into an uplink super-partition (left) and a downlink
// super-partition (right); within the uplink portion deeper layers come
// first (packets climb the tree), within the downlink portion shallower
// layers come first (packets descend). Components are placed back to back
// in time, each anchored at channel 0.
//
// In strict mode (bestEffort=false) any component that does not fit yields
// ErrInfeasible. In best-effort mode the component is recorded in Overflow
// and the remaining components are still placed, modelling HARP's behaviour
// when channels are scarce.
//
// gap inserts idle slots after every placed layer partition — engineering
// slack that lets dynamic adjustments widen a layer without shifting its
// successors (and therefore without messaging their subtrees).
func AllocateRoot(up, down Interface, frame schedule.Slotframe, bestEffort bool, gap int) (RootAllocation, error) {
	if err := frame.Validate(); err != nil {
		return RootAllocation{}, err
	}
	if gap < 0 {
		return RootAllocation{}, fmt.Errorf("core: negative root gap %d", gap)
	}
	alloc := RootAllocation{Partitions: make(map[DirLayer]schedule.Region)}
	cursor := 0

	place := func(dir topology.Direction, layer int, comp Component) error {
		if comp.Empty() {
			return nil
		}
		key := DirLayer{Direction: dir, Layer: layer}
		if comp.Channels > frame.Channels || cursor+comp.Slots > frame.DataSlots {
			if bestEffort {
				alloc.Overflow = append(alloc.Overflow, key)
				return nil
			}
			return fmt.Errorf("%w: %s layer %d needs %v at slot %d (data sub-frame %dx%d)",
				ErrInfeasible, dir, layer, comp, cursor, frame.DataSlots, frame.Channels)
		}
		alloc.Partitions[key] = comp.Region(cursor, 0)
		cursor += comp.Slots + gap
		return nil
	}

	// Uplink super-partition: deepest layer first.
	for layer := up.LastLayer(); layer >= up.FirstLayer; layer-- {
		comp, _ := up.Component(layer)
		if err := place(topology.Uplink, layer, comp); err != nil {
			return RootAllocation{}, err
		}
	}
	// Downlink super-partition: shallowest layer first.
	for layer := down.FirstLayer; layer <= down.LastLayer(); layer++ {
		comp, _ := down.Component(layer)
		if err := place(topology.Downlink, layer, comp); err != nil {
			return RootAllocation{}, err
		}
	}
	return alloc, nil
}

// SplitPartition derives the child partitions inside a parent partition from
// the composition layout stored when the parent composed the corresponding
// component (§IV-C): each child's component keeps its relative offset, now
// translated by the parent partition's origin. children are the host's
// children in ascending ID order (they name a child in the error); layout
// and comps are indexed by the same child slots, and a layout that places
// a slot with no child or no component is an error. out[i] receives slot
// i's region for every slot the layout places; the other entries are left
// as they are. out is caller-owned and must hold len(children) regions.
//
//harplint:hotpath
func SplitPartition(parent schedule.Region, children []topology.NodeID, layout Layout, comps []Component, out []schedule.Region) error {
	for i, off := range layout {
		if !off.Placed {
			continue
		}
		if i >= len(children) || i >= len(comps) {
			return fmt.Errorf("core: layout places slot %d of %d children with %d components", i, len(children), len(comps)) //harplint:allow hotpath error path: a layout longer than the host's child list
		}
		region := comps[i].Region(parent.Slot+off.Slot, parent.Channel+off.Channel)
		if !parent.ContainsRegion(region) {
			return fmt.Errorf("core: child %d partition %v escapes parent %v", children[i], region, parent) //harplint:allow hotpath error path: a layout that no longer fits its partition
		}
		out[i] = region
	}
	return nil
}

// LinkDemand is one child link's cell requirement at a node, with the rate
// of its highest-rate flow for Rate-Monotonic ordering.
type LinkDemand struct {
	Link    topology.Link
	Cells   int
	TopRate float64 // packets/slotframe of the fastest task on the link
}

// Run is one child link's cell assignment inside its parent's own-layer
// partition: Count consecutive cells from position Start of the
// partition's slot-major cell order (the order of Region.Cells).
type Run struct {
	Start, Count int
}

// AppendCells appends the run's cells inside partition p to dst.
func (r Run) AppendCells(dst []schedule.Cell, p schedule.Region) []schedule.Cell {
	for k := r.Start; k < r.Start+r.Count; k++ {
		dst = append(dst, runCell(p, k))
	}
	return dst
}

// Matches reports whether cells are exactly the run's cells inside
// partition p, in order, without listing the run.
func (r Run) Matches(p schedule.Region, cells []schedule.Cell) bool {
	if len(cells) != r.Count {
		return false
	}
	for k, c := range cells {
		if c != runCell(p, r.Start+k) {
			return false
		}
	}
	return true
}

// runCell returns the cell at position k of p's slot-major order.
func runCell(p schedule.Region, k int) schedule.Cell {
	return schedule.Cell{Slot: p.Slot + k/p.Channels, Channel: p.Channel + k%p.Channels}
}

// AssignScratch is AssignCells' reusable Rate-Monotonic order. The zero
// value is ready; a warm one makes AssignCells allocation-free.
type AssignScratch struct {
	order []rmEntry
}

// rmEntry is one link in Rate-Monotonic order: its demand's index and the
// keys it sorts by.
type rmEntry struct {
	slot  int
	rate  float64
	child topology.NodeID
}

// compareRM orders links highest rate (shortest period) first, ties broken
// by child ID.
func compareRM(a, b rmEntry) int {
	switch {
	case a.rate > b.rate:
		return -1
	case a.rate < b.rate:
		return 1
	}
	return cmp.Compare(a.child, b.child)
}

// AssignCells performs the distributed schedule generation of §IV-D: the
// node owning partition p (its own-layer partition, shape [n^s, 1]) assigns
// concrete cells to each child link. Links are served in Rate-Monotonic
// order — highest rate (shortest period) first, ties broken by child ID —
// and each link receives a consecutive run of cells, preserving the
// compliant-schedule ordering within the partition. runs[i] receives
// demands[i]'s run (the zero Run for a link with no demand); runs is
// caller-owned and must hold len(demands) entries.
//
//harplint:hotpath
func AssignCells(p schedule.Region, demands []LinkDemand, runs []Run, s *AssignScratch) error {
	total := 0
	for _, d := range demands {
		if d.Cells < 0 {
			return fmt.Errorf("core: negative demand %d on %v", d.Cells, d.Link) //harplint:allow hotpath error path: a caller passing a negative demand
		}
		total += d.Cells
	}
	if total > p.CellCount() {
		return fmt.Errorf("%w: need %d cells, partition %v has %d", ErrInfeasible, total, p, p.CellCount()) //harplint:allow hotpath error path: demand over the partition
	}
	s.order = s.order[:0]
	for i, d := range demands {
		s.order = append(s.order, rmEntry{slot: i, rate: d.TopRate, child: d.Link.Child})
	}
	slices.SortFunc(s.order, compareRM)
	next := 0
	for _, e := range s.order {
		c := demands[e.slot].Cells
		if c == 0 {
			runs[e.slot] = Run{}
			continue
		}
		runs[e.slot] = Run{Start: next, Count: c}
		next += c
	}
	return nil
}
