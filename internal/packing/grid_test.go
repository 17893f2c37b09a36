package packing

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
	g, err := NewGrid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.FreeCells() != 12 {
		t.Errorf("free = %d, want 12", g.FreeCells())
	}
}

func TestGridObstacles(t *testing.T) {
	g, err := NewGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddObstacle(1, 1, 2, 2); err != nil {
		t.Fatalf("AddObstacle: %v", err)
	}
	if !g.Occupied(1, 1) || !g.Occupied(2, 2) {
		t.Error("obstacle cells not occupied")
	}
	if g.Occupied(0, 0) {
		t.Error("free cell reported occupied")
	}
	if !g.Occupied(-1, 0) || !g.Occupied(0, 5) {
		t.Error("out-of-range cells must count as occupied")
	}
	if err := g.AddObstacle(2, 2, 2, 2); err == nil {
		t.Error("overlapping obstacle accepted")
	}
	if err := g.AddObstacle(4, 4, 2, 2); err == nil {
		t.Error("out-of-bounds obstacle accepted")
	}
	if err := g.AddObstacle(0, 0, 0, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero-size obstacle: want ErrBadInput, got %v", err)
	}
}

func TestGridPlaceBottomLeft(t *testing.T) {
	g, _ := NewGrid(4, 4)
	x, y, ok := g.PlaceBottomLeft(2, 2)
	if !ok || x != 0 || y != 0 {
		t.Fatalf("first placement = (%d,%d,%v), want (0,0,true)", x, y, ok)
	}
	x, y, ok = g.PlaceBottomLeft(2, 2)
	if !ok || x != 2 || y != 0 {
		t.Fatalf("second placement = (%d,%d,%v), want (2,0,true)", x, y, ok)
	}
	x, y, ok = g.PlaceBottomLeft(4, 2)
	if !ok || x != 0 || y != 2 {
		t.Fatalf("third placement = (%d,%d,%v), want (0,2,true)", x, y, ok)
	}
	if _, _, ok = g.PlaceBottomLeft(1, 1); ok {
		t.Error("placement into full grid succeeded")
	}
	if _, _, ok = g.PlaceBottomLeft(0, 1); ok {
		t.Error("zero-size placement succeeded")
	}
}

func TestGridPackFreeSpaceAroundObstacles(t *testing.T) {
	// 6x4 grid with a 2x4 wall in the middle: two 2x4 free columns remain.
	g, _ := NewGrid(6, 4)
	if err := g.AddObstacle(2, 0, 2, 4); err != nil {
		t.Fatal(err)
	}
	placements, err := g.PackFreeSpace(rects([2]int{2, 4}, [2]int{2, 4}))
	if err != nil {
		t.Fatalf("PackFreeSpace: %v", err)
	}
	if len(placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(placements))
	}
	for _, p := range placements {
		if p.X == 2 || p.X == 3 {
			t.Errorf("placement %+v overlaps obstacle", p)
		}
	}
	if g.FreeCells() != 0 {
		t.Errorf("free cells = %d, want 0", g.FreeCells())
	}
}

func TestGridPackFreeSpaceFailureLeavesGridUntouched(t *testing.T) {
	g, _ := NewGrid(4, 4)
	if err := g.AddObstacle(0, 0, 4, 2); err != nil {
		t.Fatal(err)
	}
	before := g.FreeCells()
	_, err := g.PackFreeSpace(rects([2]int{4, 3}))
	if !errors.Is(err, ErrNoFit) {
		t.Fatalf("want ErrNoFit, got %v", err)
	}
	if g.FreeCells() != before {
		t.Error("failed PackFreeSpace modified the grid")
	}
	if _, err := g.PackFreeSpace(rects([2]int{0, 3})); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
}

func TestGridClone(t *testing.T) {
	g, _ := NewGrid(3, 3)
	c := g.Clone()
	if _, _, ok := c.PlaceBottomLeft(3, 3); !ok {
		t.Fatal("clone placement failed")
	}
	if g.FreeCells() != 9 {
		t.Error("mutating clone affected original")
	}
}

func TestGridPackFreeSpacePropertyNoOverlap(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, h := 4+r.Intn(12), 4+r.Intn(12)
		g, err := NewGrid(w, h)
		if err != nil {
			return false
		}
		// Random obstacles.
		obstacles := make([]Placement, 0, 3)
		for i := 0; i < 3; i++ {
			ow, oh := 1+r.Intn(3), 1+r.Intn(3)
			ox, oy := r.Intn(w-ow+1), r.Intn(h-oh+1)
			if g.AddObstacle(ox, oy, ow, oh) == nil {
				obstacles = append(obstacles, Placement{Rect: Rect{W: ow, H: oh}, X: ox, Y: oy})
			}
		}
		rs := randomRects(r, 1+r.Intn(6), 3, 3)
		placements, err := g.PackFreeSpace(rs)
		if err != nil {
			return errors.Is(err, ErrNoFit) // failing to fit is acceptable
		}
		// No placement may overlap another placement or an obstacle.
		all := append(append([]Placement{}, obstacles...), placements...)
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[i].Overlaps(all[j]) {
					return false
				}
			}
		}
		for _, p := range placements {
			if p.X < 0 || p.Y < 0 || p.X+p.W > w || p.Y+p.H > h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPackStripBottomLeftBaseline(t *testing.T) {
	rs := rects([2]int{2, 2}, [2]int{2, 2}, [2]int{4, 1})
	layout, err := PackStripBottomLeft(rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(); err != nil {
		t.Error(err)
	}
	if layout.H != 3 {
		t.Errorf("bottom-left height = %d, want 3", layout.H)
	}
	if _, err := PackStripBottomLeft(rects([2]int{9, 1}), 4); !errors.Is(err, ErrTooWide) {
		t.Errorf("want ErrTooWide, got %v", err)
	}
	empty, err := PackStripBottomLeft(nil, 4)
	if err != nil || empty.H != 0 {
		t.Errorf("empty bottom-left packing: %v %v", empty, err)
	}
}

func TestBottomLeftPropertyValid(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 2 + r.Intn(16)
		rs := randomRects(r, 1+r.Intn(20), width, 8)
		layout, err := PackStripBottomLeft(rs, width)
		if err != nil {
			return false
		}
		return layout.Validate() == nil && len(layout.Items) == len(rs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPlacementHelpers(t *testing.T) {
	if got := (Rect{ID: 7, W: 3, H: 2}).String(); got == "" {
		t.Error("String is empty")
	}
	if (Rect{W: 3, H: 2}).Area() != 6 {
		t.Error("Area wrong")
	}
}
