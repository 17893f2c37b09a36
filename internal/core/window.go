package core

import (
	"slices"

	"github.com/harpnet/harp/internal/schedule"
)

// LayerRecord is a per-layer record: Granted returns the partition granted
// to the subtree at that layer, by the parent or by the gateway to itself,
// if any. The records of Plan and of the distributed agents both are, so
// one Window type holds either.
type LayerRecord interface {
	Granted() (schedule.Region, bool)
}

// Window is one direction's per-layer records at a node: Layers[i] is
// layer Base+i's, the shape the reference firmware keeps in fixed arrays
// indexed by hop (iface[MAX_HOP], sp_abs[MAX_HOP]). Reads outside the
// window see an absent layer; At and Cover grow it.
type Window[T LayerRecord] struct {
	Base   int
	Layers []T
}

// Layer returns layer l's record, or nil when l lies outside the window.
func (w *Window[T]) Layer(l int) *T {
	if i := l - w.Base; i >= 0 && i < len(w.Layers) {
		return &w.Layers[i]
	}
	return nil
}

// Part returns the partition granted at layer l, if any.
func (w *Window[T]) Part(l int) (schedule.Region, bool) {
	if r := w.Layer(l); r != nil {
		if part, ok := (*r).Granted(); ok {
			return part, true
		}
	}
	return schedule.Region{}, false
}

// At returns layer l's record for writing, growing the window to cover l.
// Growing moves the records: a *T is not kept across a call that may grow
// the same window.
func (w *Window[T]) At(l int) *T {
	w.Cover(l, l)
	return &w.Layers[l-w.Base]
}

// Cover grows the window to include [lo, hi], keeping the records already
// there.
func (w *Window[T]) Cover(lo, hi int) {
	if len(w.Layers) == 0 {
		w.Base = lo
	}
	lo, hi = min(lo, w.Base), max(hi, w.Base+len(w.Layers)-1)
	if lo > hi || (lo == w.Base && hi-lo+1 == len(w.Layers)) {
		return
	}
	grown := make([]T, hi-lo+1)
	copy(grown[w.Base-lo:], w.Layers)
	w.Base, w.Layers = lo, grown
}

// Regions lays the window's granted partitions out in the shape the root
// kernels take, in dst's storage: a layer with no grant reads as the zero
// region.
func (w *Window[T]) Regions(dst []schedule.Region) LayerRegions {
	dst = dst[:0]
	for i := range w.Layers {
		r, ok := w.Layers[i].Granted()
		if !ok {
			r = schedule.Region{}
		}
		dst = append(dst, r)
	}
	return LayerRegions{Base: w.Base, Regions: dst}
}

// KernelScratch is the storage the kernels' callers lay inputs out in and
// the kernels write into, reused by every call: it grows to the largest
// child list seen, never with the tree. A Plan keeps one, and so does a
// fleet of agents. A slice taken from it is valid until the next call
// that takes the same field.
type KernelScratch struct {
	// Comps holds one layer's child components by slot.
	Comps []Component
	// Demands holds one node's child link demands by slot.
	Demands []LinkDemand
	// Runs receives AssignCells' runs; RunSlots sizes it.
	Runs   []Run
	Assign AssignScratch
	// Regions is a stack of SplitPartition outputs (PushRegions,
	// PopRegions), so a split that leads to another one keeps its frame.
	Regions []schedule.Region
	// Root holds the gateway's layer partitions per direction, the input
	// of ReflowRoot and RootHost.
	Root [2]LayerRegions
}

// RunSlots returns Runs sized to n entries.
func (s *KernelScratch) RunSlots(n int) []Run {
	s.Runs = slices.Grow(s.Runs[:0], n)[:n]
	return s.Runs
}

// PushRegions pushes a frame of n regions onto the Regions stack and
// returns where it starts. A deeper frame may move the stack, so a caller
// that pushes while using its frame re-reads it through the mark.
func (s *KernelScratch) PushRegions(n int) int {
	mark := len(s.Regions)
	s.Regions = slices.Grow(s.Regions, n)[:mark+n]
	return mark
}

// PopRegions pops the frames from mark up.
func (s *KernelScratch) PopRegions(mark int) { s.Regions = s.Regions[:mark] }
