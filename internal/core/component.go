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
	"sort"

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
// demand sum on a single channel, [Σ r(e), 1].
func OwnLayerComponent(childLinkDemands []int) Component {
	total := 0
	for _, d := range childLinkDemands {
		total += d
	}
	if total == 0 {
		return Component{}
	}
	return Component{Slots: total, Channels: 1}
}

// ChildComponent pairs a child subtree root with its component at the layer
// being composed.
type ChildComponent struct {
	Child topology.NodeID
	Comp  Component
}

// Offset is the placement of a child component inside its parent's composite
// component, relative to the composite's origin.
type Offset struct {
	Slot    int
	Channel int
}

// Layout records where each child's component sits inside a composite
// component; it is retained by the composing node and reused verbatim during
// top-down partition allocation (§IV-C).
type Layout map[topology.NodeID]Offset

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
// Empty child components are ignored. The returned layout maps each
// non-empty child to its offset inside the composite.
func Compose(children []ChildComponent, maxChannels int) (Component, Layout, error) {
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
		return Component{}, Layout{}, nil
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

	layout := make(Layout, len(rects))
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

// ComposeSinglePass is the ablation variant of Compose that stops after the
// first (slot-minimising) pass, accepting whatever channel extent it
// produced. DESIGN.md's two-pass ablation bench compares the two.
func ComposeSinglePass(children []ChildComponent, maxChannels int) (Component, Layout, error) {
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
		rects = append(rects, packing.Rect{ID: idx, W: cc.Comp.Channels, H: cc.Comp.Slots})
		byID[idx] = cc.Child
	}
	if len(rects) == 0 {
		return Component{}, Layout{}, nil
	}
	pass1, err := packing.PackStrip(rects, maxChannels)
	if err != nil {
		return Component{}, nil, err
	}
	layout := make(Layout, len(rects))
	for _, p := range pass1.Items {
		layout[byID[p.Rect.ID]] = Offset{Slot: p.Y, Channel: p.X}
	}
	return Component{Slots: pass1.H, Channels: maxChannels}, layout, nil
}

// sortedLayoutNodes returns the layout's node IDs in ascending order, for
// deterministic iteration.
func sortedLayoutNodes(l Layout) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(l))
	for id := range l {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
