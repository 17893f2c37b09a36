package packing

import "fmt"

// Overlaps reports whether two placements share any interior area.
func (p Placement) Overlaps(q Placement) bool {
	return p.X < q.X+q.W && q.X < p.X+p.W && p.Y < q.Y+q.H && q.Y < p.Y+p.H
}

// Find returns the placement with the given rect ID.
func (l Layout) Find(id int) (Placement, bool) {
	for _, p := range l.Items {
		if p.Rect.ID == id {
			return p, true
		}
	}
	return Placement{}, false
}

// Validate checks structural invariants of the layout: every placement is
// inside [0, W) x [0, H) and no two placements overlap.
func (l Layout) Validate() error {
	for i, p := range l.Items {
		if p.W <= 0 || p.H <= 0 {
			return fmt.Errorf("packing: item %d has non-positive size %dx%d", i, p.W, p.H)
		}
		if p.X < 0 || p.Y < 0 || p.X+p.W > l.W || p.Y+p.H > l.H {
			return fmt.Errorf("packing: item %d (%d,%d %dx%d) outside %dx%d bounds",
				i, p.X, p.Y, p.W, p.H, l.W, l.H)
		}
		for j := i + 1; j < len(l.Items); j++ {
			if p.Overlaps(l.Items[j]) {
				return fmt.Errorf("packing: items %d and %d overlap", i, j)
			}
		}
	}
	return nil
}

// Occupied reports whether cell (x, y) is occupied. Out-of-range coordinates
// count as occupied so boundary checks fall out naturally.
func (g *Grid) Occupied(x, y int) bool { return !g.canPlace(x, y, 1, 1) }

// FreeCells returns the number of unoccupied cells.
func (g *Grid) FreeCells() int {
	free := 0
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			if !g.Occupied(x, y) {
				free++
			}
		}
	}
	return free
}
