package packing

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func rects(dims ...[2]int) []Rect {
	rs := make([]Rect, len(dims))
	for i, d := range dims {
		rs[i] = Rect{ID: i, W: d[0], H: d[1]}
	}
	return rs
}

func TestPackStripEmpty(t *testing.T) {
	layout, err := PackStrip(nil, 10)
	if err != nil {
		t.Fatalf("PackStrip(nil) error: %v", err)
	}
	if layout.H != 0 || len(layout.Items) != 0 {
		t.Fatalf("empty packing should have zero height, got %+v", layout)
	}
}

func TestPackStripSingle(t *testing.T) {
	layout, err := PackStrip(rects([2]int{4, 3}), 10)
	if err != nil {
		t.Fatalf("PackStrip error: %v", err)
	}
	if layout.H != 3 {
		t.Errorf("height = %d, want 3", layout.H)
	}
	p := layout.Items[0]
	if p.X != 0 || p.Y != 0 {
		t.Errorf("placement = (%d,%d), want origin", p.X, p.Y)
	}
}

func TestPackStripExactRow(t *testing.T) {
	// Three 2x2 rects fill a width-6 strip in one row.
	layout, err := PackStrip(rects([2]int{2, 2}, [2]int{2, 2}, [2]int{2, 2}), 6)
	if err != nil {
		t.Fatalf("PackStrip error: %v", err)
	}
	if layout.H != 2 {
		t.Errorf("height = %d, want 2 (single row)", layout.H)
	}
	if err := layout.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPackStripStacks(t *testing.T) {
	// Two full-width rects must stack.
	layout, err := PackStrip(rects([2]int{5, 2}, [2]int{5, 3}), 5)
	if err != nil {
		t.Fatalf("PackStrip error: %v", err)
	}
	if layout.H != 5 {
		t.Errorf("height = %d, want 5", layout.H)
	}
	if err := layout.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPackStripBestFitPrefersExactWidth(t *testing.T) {
	// After placing the 4-wide rect in a 6-wide strip, a 2-wide gap remains;
	// best-fit should choose the exact-width 2x1 over raising the segment.
	layout, err := PackStrip(rects([2]int{4, 2}, [2]int{2, 1}), 6)
	if err != nil {
		t.Fatalf("PackStrip error: %v", err)
	}
	if layout.H != 2 {
		t.Errorf("height = %d, want 2 (gap filled)", layout.H)
	}
}

func TestPackStripErrors(t *testing.T) {
	if _, err := PackStrip(rects([2]int{7, 1}), 5); !errors.Is(err, ErrTooWide) {
		t.Errorf("want ErrTooWide, got %v", err)
	}
	if _, err := PackStrip(rects([2]int{0, 1}), 5); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput, got %v", err)
	}
	if _, err := PackStrip(nil, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("want ErrBadInput for zero width, got %v", err)
	}
}

func TestPackStripDeterministic(t *testing.T) {
	rs := rects([2]int{3, 2}, [2]int{2, 5}, [2]int{4, 1}, [2]int{1, 1}, [2]int{2, 2})
	a, err := PackStrip(rs, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PackStrip(rs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.H != b.H || len(a.Items) != len(b.Items) {
		t.Fatalf("non-deterministic packing: %v vs %v", a, b)
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("non-deterministic placement %d: %v vs %v", i, a.Items[i], b.Items[i])
		}
	}
}

// randomRects draws n rectangles bounded by the strip width for property
// tests.
func randomRects(rng *rand.Rand, n, maxW, maxH int) []Rect {
	rs := make([]Rect, n)
	for i := range rs {
		rs[i] = Rect{ID: i, W: 1 + rng.Intn(maxW), H: 1 + rng.Intn(maxH)}
	}
	return rs
}

func TestPackStripPropertyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 2 + r.Intn(30)
		rs := randomRects(r, 1+r.Intn(40), width, 12)
		layout, err := PackStrip(rs, width)
		if err != nil {
			return false
		}
		if len(layout.Items) != len(rs) {
			return false
		}
		return layout.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPackStripPropertyAreaLowerBound(t *testing.T) {
	// Height can never beat the area lower bound ceil(sum(area)/width), nor
	// the tallest rectangle.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 2 + r.Intn(20)
		rs := randomRects(r, 1+r.Intn(30), width, 10)
		layout, err := PackStrip(rs, width)
		if err != nil {
			return false
		}
		area := 0
		for _, rc := range rs {
			area += rc.Area()
		}
		lb := (area + width - 1) / width
		tallest := 0
		for _, rc := range rs {
			if rc.H > tallest {
				tallest = rc.H
			}
		}
		if lb < tallest {
			lb = tallest
		}
		return layout.H >= lb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackStripPropertyNotWorseThanStacking(t *testing.T) {
	// The heuristic must never exceed the trivial one-column stacking bound.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 2 + r.Intn(20)
		rs := randomRects(r, 1+r.Intn(25), width, 8)
		layout, err := PackStrip(rs, width)
		if err != nil {
			return false
		}
		stack := 0
		for _, rc := range rs {
			stack += rc.H
		}
		return layout.H <= stack
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLayoutFind(t *testing.T) {
	layout, err := PackStrip(rects([2]int{2, 2}, [2]int{3, 1}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := layout.Find(1); !ok {
		t.Error("Find(1) failed")
	}
	if _, ok := layout.Find(99); ok {
		t.Error("Find(99) should fail")
	}
}

func TestLayoutValidateCatchesOverlap(t *testing.T) {
	bad := Layout{W: 4, H: 4, Items: []Placement{
		{Rect: Rect{ID: 0, W: 2, H: 2}, X: 0, Y: 0},
		{Rect: Rect{ID: 1, W: 2, H: 2}, X: 1, Y: 1},
	}}
	if bad.Validate() == nil {
		t.Error("Validate accepted overlapping layout")
	}
	outside := Layout{W: 4, H: 4, Items: []Placement{
		{Rect: Rect{ID: 0, W: 2, H: 2}, X: 3, Y: 0},
	}}
	if outside.Validate() == nil {
		t.Error("Validate accepted out-of-bounds layout")
	}
}

func TestSkylineMergeAndRaise(t *testing.T) {
	sky := newSkyline(10)
	sky.place(0, 4, 2) // segs: [0..4)@2, [4..10)@0
	if len(sky.segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(sky.segs))
	}
	sky.place(1, 6, 2) // both at height 2 -> merged
	if len(sky.segs) != 1 || sky.segs[0].y != 2 {
		t.Fatalf("expected merged skyline at height 2, got %+v", sky.segs)
	}
	sky.place(0, 3, 1)
	i := sky.lowest()
	sky.raise(i)
	if sky.height() != 3 {
		t.Errorf("height after raise = %d, want 3", sky.height())
	}
}
