package packing

import (
	"fmt"

	"github.com/harpnet/harp/internal/bitset"
)

// Grid is an exact occupancy bitmap over a small width x height region. HARP
// partitions live inside a slotframe of at most a few hundred slots and 16
// channels, so an exact cell-level representation is cheap and lets the
// partition-adjustment heuristic (Alg. 2) pack new components into the idle
// area *around* partitions that stay in place — a variant of rectangle
// packing with obstacles that the skyline heuristic cannot express.
//
// Rows are stored as bit words (rowWords uint64s per row), so the placement
// scan tests a whole candidate window with a few word operations instead of a
// bool per cell: canPlace is a per-row range test, and PlaceBottomLeft ORs
// the candidate rows together once per y and jumps straight to the first
// free run. Bits at or beyond the width are never set, keeping popcounts
// exact.
//
// The zero value is unusable; construct with NewGrid.
type Grid struct {
	w, h     int
	rowWords int
	occ      []uint64 // row y: occ[y*rowWords : (y+1)*rowWords]
	scratch  []uint64 // row union buffer for PlaceBottomLeft
}

// NewGrid returns an empty grid of the given dimensions.
func NewGrid(width, height int) (*Grid, error) {
	if width <= 0 || height <= 0 {
		return nil, ErrBadInput
	}
	rw := bitset.Words(width)
	return &Grid{
		w: width, h: height, rowWords: rw,
		occ:     make([]uint64, height*rw),
		scratch: make([]uint64, rw),
	}, nil
}

// row returns row y's words.
func (g *Grid) row(y int) []uint64 { return g.occ[y*g.rowWords : (y+1)*g.rowWords] }

// Clone returns a deep copy, used for speculative packing during feasibility
// probing.
func (g *Grid) Clone() *Grid {
	occ := make([]uint64, len(g.occ))
	copy(occ, g.occ)
	return &Grid{
		w: g.w, h: g.h, rowWords: g.rowWords,
		occ:     occ,
		scratch: make([]uint64, g.rowWords),
	}
}

// canPlace reports whether a w x h rectangle fits with bottom-left at (x, y).
func (g *Grid) canPlace(x, y, w, h int) bool {
	if x < 0 || y < 0 || x+w > g.w || y+h > g.h {
		return false
	}
	for yy := y; yy < y+h; yy++ {
		if bitset.AnyInRange(g.row(yy), x, x+w) {
			return false
		}
	}
	return true
}

func (g *Grid) fill(x, y, w, h int, v bool) {
	for yy := y; yy < y+h; yy++ {
		if v {
			bitset.SetRange(g.row(yy), x, x+w)
		} else {
			bitset.ClearRange(g.row(yy), x, x+w)
		}
	}
}

// AddObstacle marks a rectangle as occupied (an existing partition that must
// not move). It fails if the rectangle leaves the grid or overlaps an
// existing obstacle, which would indicate corrupted partition state upstream.
func (g *Grid) AddObstacle(x, y, w, h int) error {
	if w <= 0 || h <= 0 {
		return ErrBadInput
	}
	if !g.canPlace(x, y, w, h) {
		return fmt.Errorf("packing: obstacle (%d,%d %dx%d) out of bounds or overlapping", x, y, w, h)
	}
	g.fill(x, y, w, h, true)
	return nil
}

// PlaceBottomLeft finds the bottom-left-most free position for a w x h
// rectangle — scanning rows upward and columns leftward — occupies it and
// returns the position. ok is false when no position exists.
func (g *Grid) PlaceBottomLeft(w, h int) (x, y int, ok bool) {
	if w <= 0 || h <= 0 || w > g.w || h > g.h {
		return 0, 0, false
	}
	for yy := 0; yy+h <= g.h; yy++ {
		// A rectangle fits at x iff the OR of its h candidate rows has a
		// free w-run at x, so one union scan replaces the per-x rescans.
		copy(g.scratch, g.row(yy))
		for r := yy + 1; r < yy+h; r++ {
			bitset.Or(g.scratch, g.row(r))
		}
		if x, ok := bitset.FirstFreeRun(g.scratch, g.w, w); ok {
			g.fill(x, yy, w, h, true)
			return x, yy, true
		}
	}
	return 0, 0, false
}

// PackFreeSpace attempts to place all rects into the grid's free space,
// largest-area first (a robust ordering for bounded bins). On success the
// grid is updated and placements are returned; on failure the grid is left
// unmodified and the bare ErrNoFit sentinel is returned: the partition
// adjustment heuristic (Alg. 2) expects and discards one per eviction step
// that does not fit, so the no-fit path formats nothing.
func (g *Grid) PackFreeSpace(rects []Rect) ([]Placement, error) {
	for _, r := range rects {
		if r.W <= 0 || r.H <= 0 {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, r)
		}
	}
	trial := g.Clone()
	order := sortForPacking(rects)
	// Largest area first within the canonical order.
	placements := make([]Placement, 0, len(order))
	for _, r := range order {
		x, y, ok := trial.PlaceBottomLeft(r.W, r.H)
		if !ok {
			return nil, ErrNoFit
		}
		placements = append(placements, Placement{Rect: r, X: x, Y: y})
	}
	copy(g.occ, trial.occ)
	return placements, nil
}
