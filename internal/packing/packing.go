// Package packing implements the two-dimensional packing primitives HARP is
// built on: the best-fit skyline heuristic for the strip packing problem
// (SPP) used by resource-component composition (Alg. 1 of the paper), a
// rectangle-packing feasibility test (Problem 2), a grid-based free-space
// packer used by the partition-adjustment heuristic (Alg. 2), and a classic
// bottom-left packer kept as an ablation baseline.
//
// Conventions: the strip grows upward, so a placement (X, Y) is the
// bottom-left corner of a rectangle, X ∈ [0, stripWidth) and Y ≥ 0. Callers
// map HARP's (slot, channel) dimensions onto (width, height) as needed; this
// package is dimension-agnostic.
package packing

import (
	"errors"
	"fmt"
	"sort"
)

// Rect is an axis-aligned rectangle to be packed. ID is an opaque caller
// identifier preserved in the resulting placement so callers can map results
// back to their own objects (e.g. a subtree's resource component).
type Rect struct {
	ID int
	W  int // width (> 0)
	H  int // height (> 0)
}

// Area returns W*H.
func (r Rect) Area() int { return r.W * r.H }

// String renders the rectangle with its ID and dimensions.
func (r Rect) String() string { return fmt.Sprintf("rect(id=%d %dx%d)", r.ID, r.W, r.H) }

// Placement is a packed rectangle: the input Rect plus its bottom-left
// position inside the strip or bin.
type Placement struct {
	Rect
	X int
	Y int
}

// Layout is the result of a packing run: the bounding dimensions actually
// used and the placement of every input rectangle.
type Layout struct {
	W     int // strip width the packing was performed against
	H     int // height actually used (max over placements of Y+H)
	Items []Placement
}

// Errors returned by the packers.
var (
	// ErrTooWide indicates some rectangle is wider than the strip.
	ErrTooWide = errors.New("packing: rectangle wider than strip")
	// ErrNoFit indicates a bounded bin could not accommodate the input.
	ErrNoFit = errors.New("packing: rectangles do not fit in the bin")
	// ErrBadInput indicates a non-positive dimension in the input.
	ErrBadInput = errors.New("packing: rectangle or bin with non-positive dimension")
)

func checkInput(rects []Rect, stripWidth int) error {
	if stripWidth <= 0 {
		return ErrBadInput
	}
	for _, r := range rects {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("%w: %v", ErrBadInput, r)
		}
		if r.W > stripWidth {
			return fmt.Errorf("%w: %v exceeds strip width %d", ErrTooWide, r, stripWidth)
		}
	}
	return nil
}

// sortForPacking orders rectangles in the canonical best-fit skyline order:
// non-increasing height, ties broken by non-increasing width then ID, which
// keeps runs deterministic for identical inputs.
func sortForPacking(rects []Rect) []Rect {
	sorted := make([]Rect, len(rects))
	copy(sorted, rects)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.H != b.H {
			return a.H > b.H
		}
		if a.W != b.W {
			return a.W > b.W
		}
		return a.ID < b.ID
	})
	return sorted
}
