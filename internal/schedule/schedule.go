// Package schedule models the TDMA resources of a 6TiSCH-style industrial
// wireless network: cells (slot, channel pairs), slotframes split into data
// and management sub-frames, rectangular cell regions (the geometry of HARP
// partitions), and link schedules with conflict detection.
package schedule

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/harpnet/harp/internal/topology"
)

// Cell is the basic allocatable resource unit: one time slot on one channel
// within a slotframe.
type Cell struct {
	Slot    int
	Channel int
}

// String renders the cell as its (slot,channel) coordinate pair.
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.Slot, c.Channel) }

// Slotframe describes the repeating schedule frame. The first DataSlots
// slots form the data sub-frame that HARP partitions hierarchically; the
// remaining slots form the management sub-frame carrying enhanced beacons,
// RPL control and HARP protocol messages (§VI-A).
type Slotframe struct {
	Slots        int           // total slots per slotframe (e.g. 199)
	Channels     int           // available channels (e.g. 16)
	DataSlots    int           // slots in the data sub-frame (<= Slots)
	SlotDuration time.Duration // physical slot length (e.g. 10ms)
}

// Testbed returns the slotframe configuration of the paper's testbed:
// 199 slots of 10 ms on 16 channels, with the trailing 9 slots reserved
// for management traffic (enhanced beacons, RPL control, HARP messages —
// one uplink and one downlink management cell per node fit in 9 slots x
// 16 channels; the paper does not publish its exact split).
func Testbed() Slotframe {
	return Slotframe{Slots: 199, Channels: 16, DataSlots: 190, SlotDuration: 10 * time.Millisecond}
}

// Validate checks dimensional sanity.
func (f Slotframe) Validate() error {
	if f.Slots <= 0 || f.Channels <= 0 {
		return fmt.Errorf("schedule: slotframe %dx%d has non-positive dimension", f.Slots, f.Channels)
	}
	if f.DataSlots <= 0 || f.DataSlots > f.Slots {
		return fmt.Errorf("schedule: data sub-frame %d outside (0,%d]", f.DataSlots, f.Slots)
	}
	if f.SlotDuration <= 0 {
		return errors.New("schedule: non-positive slot duration")
	}
	return nil
}

// Duration returns the wall-clock length of one slotframe.
func (f Slotframe) Duration() time.Duration {
	return time.Duration(f.Slots) * f.SlotDuration
}

// Contains reports whether the cell lies inside the slotframe.
func (f Slotframe) Contains(c Cell) bool {
	return c.Slot >= 0 && c.Slot < f.Slots && c.Channel >= 0 && c.Channel < f.Channels
}

// InDataSubframe reports whether the cell lies inside the data sub-frame.
func (f Slotframe) InDataSubframe(c Cell) bool {
	return f.Contains(c) && c.Slot < f.DataSlots
}

// DataRegion returns the rectangular region of the whole data sub-frame.
func (f Slotframe) DataRegion() Region {
	return Region{Slot: 0, Channel: 0, Slots: f.DataSlots, Channels: f.Channels}
}

// Region is an axis-aligned rectangle of cells: the geometric footprint of a
// HARP partition P = [C, t, c] — origin (Slot, Channel), extent
// (Slots x Channels).
type Region struct {
	Slot     int // starting slot t
	Channel  int // lowest channel index c
	Slots    int // extent in the time dimension (n^s)
	Channels int // extent in the channel dimension (n^c)
}

// String renders the region as its slot/channel extents.
func (r Region) String() string {
	return fmt.Sprintf("region[t=%d c=%d %ds x %dch]", r.Slot, r.Channel, r.Slots, r.Channels)
}

// Empty reports whether the region covers no cells.
func (r Region) Empty() bool { return r.Slots <= 0 || r.Channels <= 0 }

// CellCount returns the number of cells the region covers.
func (r Region) CellCount() int {
	if r.Empty() {
		return 0
	}
	return r.Slots * r.Channels
}

// Contains reports whether the cell lies inside the region.
func (r Region) Contains(c Cell) bool {
	return c.Slot >= r.Slot && c.Slot < r.Slot+r.Slots &&
		c.Channel >= r.Channel && c.Channel < r.Channel+r.Channels
}

// ContainsRegion reports whether q lies entirely inside r.
func (r Region) ContainsRegion(q Region) bool {
	if q.Empty() {
		return true
	}
	return q.Slot >= r.Slot && q.Slot+q.Slots <= r.Slot+r.Slots &&
		q.Channel >= r.Channel && q.Channel+q.Channels <= r.Channel+r.Channels
}

// Overlaps reports whether r and q share any cell.
func (r Region) Overlaps(q Region) bool {
	if r.Empty() || q.Empty() {
		return false
	}
	return r.Slot < q.Slot+q.Slots && q.Slot < r.Slot+r.Slots &&
		r.Channel < q.Channel+q.Channels && q.Channel < r.Channel+r.Channels
}

// Cells enumerates the region's cells in slot-major order.
func (r Region) Cells() []Cell {
	if r.Empty() {
		return nil
	}
	out := make([]Cell, 0, r.CellCount())
	for s := r.Slot; s < r.Slot+r.Slots; s++ {
		for ch := r.Channel; ch < r.Channel+r.Channels; ch++ {
			out = append(out, Cell{Slot: s, Channel: ch})
		}
	}
	return out
}

// Distance returns the slot-axis gap between two regions (0 when they touch
// or overlap in the time dimension). The partition-adjustment heuristic
// (Alg. 2) evicts the *closest* partition first; proximity along the time
// axis is the natural metric inside a single-layer partition strip.
func (r Region) Distance(q Region) int {
	switch {
	case q.Slot >= r.Slot+r.Slots:
		return q.Slot - (r.Slot + r.Slots)
	case r.Slot >= q.Slot+q.Slots:
		return r.Slot - (q.Slot + q.Slots)
	default:
		return 0
	}
}

// Schedule is a complete cell assignment: which link transmits in which
// cells of a slotframe. A cell may appear under multiple links (that is
// precisely the collision the baselines suffer from); conflict queries
// detect it.
type Schedule struct {
	Frame Slotframe
	cells map[topology.Link][]Cell
}

// NewSchedule returns an empty schedule over the given slotframe.
func NewSchedule(frame Slotframe) (*Schedule, error) {
	if err := frame.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{Frame: frame, cells: make(map[topology.Link][]Cell)}, nil
}

// ErrOutOfFrame is returned when assigning a cell outside the slotframe.
var ErrOutOfFrame = errors.New("schedule: cell outside slotframe")

// Assign appends cells to a link's allocation.
func (s *Schedule) Assign(l topology.Link, cells ...Cell) error {
	for _, c := range cells {
		if !s.Frame.Contains(c) {
			return fmt.Errorf("%w: %v", ErrOutOfFrame, c)
		}
	}
	s.cells[l] = append(s.cells[l], cells...)
	return nil
}

// Cells returns a copy of the link's allocated cells.
func (s *Schedule) Cells(l topology.Link) []Cell {
	out := make([]Cell, len(s.cells[l]))
	copy(out, s.cells[l])
	return out
}

// Links returns all links with at least one cell, sorted.
func (s *Schedule) Links() []topology.Link {
	out := make([]topology.Link, 0, len(s.cells))
	for l := range s.cells {
		out = append(out, l)
	}
	slices.SortFunc(out, compareLinks)
	return out
}

// compareLinks orders links uplinks first, then by child.
func compareLinks(a, b topology.Link) int {
	return cmp.Or(cmp.Compare(a.Direction, b.Direction), cmp.Compare(a.Child, b.Child))
}

// TotalCells returns the number of (link, cell) assignments.
func (s *Schedule) TotalCells() int {
	total := 0
	for _, cs := range s.cells {
		total += len(cs)
	}
	return total
}

// Transmission is one scheduled (link, cell) pair, the unit the collision
// analysis counts.
type Transmission struct {
	Link topology.Link
	Cell Cell
}

// Transmissions enumerates all scheduled transmissions in deterministic
// order.
func (s *Schedule) Transmissions() []Transmission {
	out := make([]Transmission, 0, s.TotalCells())
	for _, l := range s.Links() {
		for _, c := range s.cells[l] {
			out = append(out, Transmission{Link: l, Cell: c})
		}
	}
	return out
}
