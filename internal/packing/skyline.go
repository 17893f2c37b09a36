package packing

import "fmt"

// segment is one horizontal piece of the skyline: the strip is covered from
// x to x+w at height y (the next free Y coordinate above already-placed
// rectangles).
type segment struct {
	x, w, y int
}

// skyline maintains the staircase profile of a partially packed strip, as in
// the improved best-fit skyline heuristic of Wei et al. (Comput. Oper. Res.
// 2017), the solver the HARP paper deploys on-device.
type skyline struct {
	width int
	segs  []segment
}

func newSkyline(width int) *skyline {
	return &skyline{width: width, segs: []segment{{x: 0, w: width, y: 0}}}
}

// lowest returns the index of the lowest segment, preferring the leftmost on
// ties; this is the placement candidate the best-fit rule evaluates next.
func (s *skyline) lowest() int {
	best := 0
	for i, seg := range s.segs {
		if seg.y < s.segs[best].y {
			best = i
		}
	}
	return best
}

// neighbourHeights returns the heights of the segments adjacent to segs[i];
// the strip boundary behaves like an infinitely tall wall.
func (s *skyline) neighbourHeights(i int) (left, right int) {
	const wall = int(^uint(0) >> 1) // max int
	left, right = wall, wall
	if i > 0 {
		left = s.segs[i-1].y
	}
	if i < len(s.segs)-1 {
		right = s.segs[i+1].y
	}
	return left, right
}

// raise lifts segs[i] to the lower of its two neighbours and merges; called
// when no remaining rectangle fits the lowest segment (wasted area).
func (s *skyline) raise(i int) {
	left, right := s.neighbourHeights(i)
	to := left
	if right < to {
		to = right
	}
	s.segs[i].y = to
	s.merge()
}

// place puts a rectangle of size w x h with its bottom-left corner at the
// left end of segs[i], updating the skyline.
func (s *skyline) place(i int, w, h int) (x, y int) {
	seg := s.segs[i]
	x, y = seg.x, seg.y
	if w > seg.w {
		panic(fmt.Sprintf("packing: internal error, rect width %d exceeds segment width %d", w, seg.w))
	}
	placed := segment{x: seg.x, w: w, y: seg.y + h}
	if w == seg.w {
		s.segs[i] = placed
	} else {
		rest := segment{x: seg.x + w, w: seg.w - w, y: seg.y}
		s.segs[i] = placed
		s.segs = append(s.segs, segment{})
		copy(s.segs[i+2:], s.segs[i+1:])
		s.segs[i+1] = rest
	}
	s.merge()
	return x, y
}

// merge coalesces adjacent segments of equal height.
func (s *skyline) merge() {
	merged := s.segs[:1]
	for _, seg := range s.segs[1:] {
		last := &merged[len(merged)-1]
		if last.y == seg.y {
			last.w += seg.w
		} else {
			merged = append(merged, seg)
		}
	}
	s.segs = merged
}

// height is the maximum skyline elevation, i.e. the strip height used so far.
func (s *skyline) height() int {
	h := 0
	for _, seg := range s.segs {
		if seg.y > h {
			h = seg.y
		}
	}
	return h
}

// bestFitIndex selects, among unplaced rectangles, the best fit for segment
// seg under the classic best-fit scoring: prefer the rectangle whose width
// exactly matches the segment, otherwise the widest that fits; ties are
// broken by the taller rectangle, then by lower ID for determinism. Returns
// -1 if nothing fits.
func bestFitIndex(rects []Rect, used []bool, seg segment) int {
	best := -1
	for i, r := range rects {
		if used[i] || r.W > seg.w {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := rects[best]
		exactR, exactB := r.W == seg.w, b.W == seg.w
		switch {
		case exactR && !exactB:
			best = i
		case exactB && !exactR:
			// keep best
		case r.W != b.W:
			if r.W > b.W {
				best = i
			}
		case r.H != b.H:
			if r.H > b.H {
				best = i
			}
		}
	}
	return best
}

// PackStrip solves the strip packing problem heuristically: pack all rects
// into a strip of the given width, minimising the used height. The returned
// layout contains a placement for every input rectangle (inputs may repeat
// IDs; placements preserve input order of discovery, not input order).
//
// This is the solver invoked twice by HARP's resource-component composition
// (Alg. 1): first with the channel budget as the width to minimise slots,
// then with the minimal slot count as the width to minimise channels.
func PackStrip(rects []Rect, stripWidth int) (Layout, error) {
	if err := checkInput(rects, stripWidth); err != nil {
		return Layout{}, err
	}
	layout := Layout{W: stripWidth, Items: make([]Placement, 0, len(rects))}
	if len(rects) == 0 {
		return layout, nil
	}
	sorted := sortForPacking(rects)
	used := make([]bool, len(sorted))
	sky := newSkyline(stripWidth)
	remaining := len(sorted)
	for remaining > 0 {
		li := sky.lowest()
		ri := bestFitIndex(sorted, used, sky.segs[li])
		if ri == -1 {
			sky.raise(li)
			continue
		}
		r := sorted[ri]
		x, y := sky.place(li, r.W, r.H)
		layout.Items = append(layout.Items, Placement{Rect: r, X: x, Y: y})
		used[ri] = true
		remaining--
	}
	layout.H = sky.height()
	return layout, nil
}
