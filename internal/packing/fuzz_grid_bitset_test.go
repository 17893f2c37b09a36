package packing

import "testing"

// boolGrid is the pre-bitset reference implementation of Grid: a bool per
// cell, scanned cell by cell. The fuzz target below drives both through the
// same operation sequence and diffs every observable, so the word-parallel
// implementation can never silently diverge from the simple semantics the
// grid tests pin.
type boolGrid struct {
	w, h int
	occ  []bool
}

func newBoolGrid(w, h int) *boolGrid {
	return &boolGrid{w: w, h: h, occ: make([]bool, w*h)}
}

func (g *boolGrid) occupied(x, y int) bool {
	if x < 0 || y < 0 || x >= g.w || y >= g.h {
		return true
	}
	return g.occ[y*g.w+x]
}

func (g *boolGrid) freeCells() int {
	n := 0
	for _, o := range g.occ {
		if !o {
			n++
		}
	}
	return n
}

func (g *boolGrid) canPlace(x, y, w, h int) bool {
	if x < 0 || y < 0 || x+w > g.w || y+h > g.h {
		return false
	}
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			if g.occ[yy*g.w+xx] {
				return false
			}
		}
	}
	return true
}

func (g *boolGrid) fill(x, y, w, h int, v bool) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			g.occ[yy*g.w+xx] = v
		}
	}
}

func (g *boolGrid) addObstacle(x, y, w, h int) bool {
	if w <= 0 || h <= 0 || !g.canPlace(x, y, w, h) {
		return false
	}
	g.fill(x, y, w, h, true)
	return true
}

func (g *boolGrid) placeBottomLeft(w, h int) (int, int, bool) {
	if w <= 0 || h <= 0 {
		return 0, 0, false
	}
	for yy := 0; yy+h <= g.h; yy++ {
		for xx := 0; xx+w <= g.w; xx++ {
			if g.canPlace(xx, yy, w, h) {
				g.fill(xx, yy, w, h, true)
				return xx, yy, true
			}
		}
	}
	return 0, 0, false
}

// FuzzGridBitset differentially fuzzes the bitset Grid against the bool
// reference: every operation's return values and the full occupancy map must
// match after each step. Widths beyond one word exercise the multi-word
// range and run-scan paths.
func FuzzGridBitset(f *testing.F) {
	f.Add(uint8(10), uint8(6), []byte{0, 2, 3, 4, 4, 1, 1, 3, 3})
	f.Add(uint8(70), uint8(4), []byte{2, 65, 3, 0, 60, 2, 2, 1, 5, 5})
	f.Add(uint8(64), uint8(8), []byte{0, 0, 0, 64, 8, 2, 1, 1})
	f.Fuzz(func(t *testing.T, wByte, hByte uint8, ops []byte) {
		width := int(wByte%130) + 1 // cross the 64- and 128-bit word seams
		height := int(hByte%12) + 1
		g, err := NewGrid(width, height)
		if err != nil {
			t.Fatalf("NewGrid(%d,%d): %v", width, height, err)
		}
		ref := newBoolGrid(width, height)
		check := func(step int, op string) {
			t.Helper()
			if got, want := g.FreeCells(), ref.freeCells(); got != want {
				t.Fatalf("step %d %s: FreeCells %d, reference %d", step, op, got, want)
			}
			for y := -1; y <= height; y++ {
				for x := -1; x <= width; x++ {
					if got, want := g.Occupied(x, y), ref.occupied(x, y); got != want {
						t.Fatalf("step %d %s: Occupied(%d,%d) = %v, reference %v", step, op, x, y, got, want)
					}
				}
			}
		}
		for i := 0; i+4 < len(ops); i += 5 {
			kind := ops[i] % 2
			x := int(ops[i+1]) % (width + 2)
			y := int(ops[i+2]) % (height + 2)
			w := int(ops[i+3]) % (width + 2)
			h := int(ops[i+4]) % (height + 2)
			switch kind {
			case 0:
				err := g.AddObstacle(x, y, w, h)
				refOK := ref.addObstacle(x, y, w, h)
				if (err == nil) != refOK {
					t.Fatalf("step %d: AddObstacle(%d,%d,%d,%d) err=%v, reference ok=%v", i, x, y, w, h, err, refOK)
				}
				check(i, "AddObstacle")
			case 1:
				gx, gy, gok := g.PlaceBottomLeft(w, h)
				rx, ry, rok := ref.placeBottomLeft(w, h)
				if gx != rx || gy != ry || gok != rok {
					t.Fatalf("step %d: PlaceBottomLeft(%d,%d) = (%d,%d,%v), reference (%d,%d,%v)",
						i, w, h, gx, gy, gok, rx, ry, rok)
				}
				check(i, "PlaceBottomLeft")
			}
		}
	})
}
