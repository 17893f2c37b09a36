// Package core implements the HARP framework itself: resource components
// and interfaces (Definitions 1–2), bottom-up resource-interface generation
// with strip-packing composition (Alg. 1), top-down partition allocation
// following the compliant-schedule order, distributed Rate-Monotonic cell
// assignment inside partitions, the feasibility test (Problem 2), and the
// cost-aware partition-adjustment heuristic (Alg. 2, Problem 3).
//
// The package is written as a set of pure per-node computations plus a
// Planner that runs them over a whole tree. The planner mirrors exactly what
// the distributed agents in internal/agent compute hop by hop; experiments
// that only need resulting schedules and overhead counts use the planner,
// while protocol-level experiments use the agents.
package core

import (
	"errors"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/packing"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// Component is a resource component C = [n^s, n^c] (Definition 1): a
// rectangular block of Slots x Channels consecutive cells required by all
// the links of one subtree at one layer.
type Component struct {
	Slots    int // n^s: extent in the time dimension
	Channels int // n^c: extent in the channel dimension
}

// Empty reports whether the component requires no cells.
func (c Component) Empty() bool { return c.Slots <= 0 || c.Channels <= 0 }

// Cells returns the component's cell count.
func (c Component) Cells() int {
	if c.Empty() {
		return 0
	}
	return c.Slots * c.Channels
}

// String renders the component as its [slots,channels] demand pair.
func (c Component) String() string { return fmt.Sprintf("[%d,%d]", c.Slots, c.Channels) }

// Region places the component at an origin, yielding the geometric footprint
// of a partition P = [C, t, c].
func (c Component) Region(slot, channel int) schedule.Region {
	return schedule.Region{Slot: slot, Channel: channel, Slots: c.Slots, Channels: c.Channels}
}

// Interface is a resource interface I_i (Definition 2): one component per
// layer, from the subtree root's own link layer l(V_i) through the deepest
// layer of the subtree l(G_Vi). Layers where the subtree happens to need no
// cells hold an empty component.
type Interface struct {
	Owner      topology.NodeID
	FirstLayer int // l(V_i)
	Comps      []Component
}

// Component returns the component at the given layer.
func (i Interface) Component(layer int) (Component, bool) {
	idx := layer - i.FirstLayer
	if idx < 0 || idx >= len(i.Comps) {
		return Component{}, false
	}
	return i.Comps[idx], true
}

// LastLayer returns the deepest layer the interface covers, l(G_Vi).
func (i Interface) LastLayer() int { return i.FirstLayer + len(i.Comps) - 1 }

// String renders the interface as its per-layer component list.
func (i Interface) String() string {
	return fmt.Sprintf("I_%d(l=%d..%d %v)", i.Owner, i.FirstLayer, i.LastLayer(), i.Comps)
}

// OwnLayerComponent computes C_{i,l(Vi)} (composition Case 1): the links
// between a node and its k children share the node, so the half-duplex
// constraint forces them into distinct time slots — the component is the
// demand sum on a single channel, [Σ r(e), 1]. total is that sum.
func OwnLayerComponent(total int) Component {
	if total == 0 {
		return Component{}
	}
	return Component{Slots: total, Channels: 1}
}

// Offset is the placement of a child component inside its parent's
// composite component, relative to the composite's origin. Placed is the
// absent flag: false for a child the layout does not place, so the zero
// Offset is an absent slot.
type Offset struct {
	Slot    int
	Channel int
	Placed  bool
}

// Layout records where each child's component sits inside a composite
// component; it is retained by the composing node and reused verbatim during
// top-down partition allocation (§IV-C). It is indexed by child slot: slot
// i is the host's i-th child in ascending ID order, the same slot the
// per-child component slices use. A Layout shorter than the child list
// leaves the remaining slots absent, so a nil Layout places nothing.
type Layout []Offset

// At returns slot i's offset, absent beyond the end of the layout.
func (l Layout) At(i int) Offset {
	if i < len(l) {
		return l[i]
	}
	return Offset{}
}

// InsertSlot inserts a zero element — an absent offset, an empty
// component — at slot i of a slice indexed by child slot, for a child that
// joins the host's child list at slot i. A slice that ends before i is
// returned as it is: the slot reads as zero already.
func InsertSlot[S ~[]E, E any](s S, i int) S {
	if i > len(s) {
		return s
	}
	var zero E
	return slices.Insert(s, i, zero)
}

// DeleteSlot removes slot i from a slice indexed by child slot, for a
// child that leaves the host's child list.
func DeleteSlot[S ~[]E, E any](s S, i int) S {
	if i >= len(s) {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// ErrChannelBudget is returned when a single child component already exceeds
// the channel budget, making composition impossible.
var ErrChannelBudget = errors.New("core: component exceeds channel budget")

// Compose solves Problem 1 (resource component composition) with the
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
// comps holds one component per child slot; empty ones are ignored. The
// returned layout places every non-empty slot and leaves the others
// absent; it is nil when nothing is placed.
func Compose(comps []Component, maxChannels int) (Component, Layout, error) {
	rects, err := composeRects(comps, maxChannels)
	if err != nil || len(rects) == 0 {
		return Component{}, nil, err
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
	for i, r := range rects {
		rects[i] = packing.Rect{ID: r.ID, W: r.H, H: r.W}
	}
	pass2, err := packing.PackStrip(rects, minSlots)
	if err != nil {
		return Component{}, nil, err
	}

	layout := make(Layout, len(comps))
	var comp Component
	if pass2.H <= pass1Channels {
		comp = Component{Slots: minSlots, Channels: pass2.H}
		for _, p := range pass2.Items {
			layout[p.Rect.ID] = Offset{Slot: p.X, Channel: p.Y, Placed: true}
		}
	} else {
		// Keep the transposed pass-1 layout.
		comp = Component{Slots: minSlots, Channels: pass1Channels}
		for _, p := range pass1.Items {
			layout[p.Rect.ID] = Offset{Slot: p.Y, Channel: p.X, Placed: true}
		}
	}
	return comp, layout, nil
}

// ComposeSinglePass is the ablation variant of Compose that stops after the
// first (slot-minimising) pass, accepting whatever channel extent it
// produced. DESIGN.md's two-pass ablation bench compares the two.
func ComposeSinglePass(comps []Component, maxChannels int) (Component, Layout, error) {
	rects, err := composeRects(comps, maxChannels)
	if err != nil || len(rects) == 0 {
		return Component{}, nil, err
	}
	pass1, err := packing.PackStrip(rects, maxChannels)
	if err != nil {
		return Component{}, nil, err
	}
	layout := make(Layout, len(comps))
	for _, p := range pass1.Items {
		layout[p.Rect.ID] = Offset{Slot: p.Y, Channel: p.X, Placed: true}
	}
	return Component{Slots: pass1.H, Channels: maxChannels}, layout, nil
}

// composeRects checks the channel budget and returns the non-empty child
// components as pass-1 rectangles (width = channels, height = slots), each
// with its child slot as ID.
func composeRects(comps []Component, maxChannels int) ([]packing.Rect, error) {
	if maxChannels <= 0 {
		return nil, fmt.Errorf("core: non-positive channel budget %d", maxChannels)
	}
	rects := make([]packing.Rect, 0, len(comps))
	for slot, c := range comps {
		if c.Empty() {
			continue
		}
		if c.Channels > maxChannels {
			return nil, fmt.Errorf("%w: child slot %d needs %d of %d channels",
				ErrChannelBudget, slot, c.Channels, maxChannels)
		}
		rects = append(rects, packing.Rect{ID: slot, W: c.Channels, H: c.Slots})
	}
	return rects, nil
}
