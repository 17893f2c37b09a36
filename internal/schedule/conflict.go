package schedule

import (
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/topology"
)

// SlotIndex is a schedule's cells counting-sorted by slot, the one kernel
// every conflict check scans: Validate, the invariant checker and the
// Fig. 11 collision analysis. A conflict
// needs two transmissions in one slot, so each check walks one slot's few
// entries at a time and never keys a map by cell or by (slot, node).
//
// Within a slot the entries follow sorted-link order, and a link's cells
// keep their assignment order, so one link's entries in a slot are
// adjacent. The index allocates O(cells + slots + links): the buckets run
// to the largest slot a cell uses, not to the frame (which may have shrunk
// since Assign), and nothing is sized by the tree.
type SlotIndex struct {
	Links    []topology.Link // the schedule's links, sorted
	start    []int32         // slot t's entries are entries[start[t]:start[t+1]]
	entries  []Entry
	channels int          // largest channel any cell uses, plus one
	outside  Transmission // first out-of-frame cell in link order
	isOut    bool         // whether outside is set
}

// Entry is one scheduled cell inside its slot's bucket.
type Entry struct {
	Link    int32 // index into SlotIndex.Links
	Channel int32
}

// Index counting-sorts the schedule's cells by slot.
func (s *Schedule) Index() SlotIndex {
	x := SlotIndex{Links: s.Links()}
	slots, n := 0, 0
	for _, l := range x.Links {
		for _, c := range s.cells[l] {
			if !x.isOut && !s.Frame.Contains(c) {
				x.outside, x.isOut = Transmission{Link: l, Cell: c}, true
			}
			slots = max(slots, c.Slot+1)
			x.channels = max(x.channels, c.Channel+1)
			n++
		}
	}
	// Count into start[t+1], prefix-sum so start[t] is slot t's first entry,
	// place with start[t] as the cursor, then shift the ends back down.
	x.start = make([]int32, slots+1)
	for _, cs := range s.cells {
		for _, c := range cs {
			x.start[c.Slot+1]++
		}
	}
	for t := 1; t <= slots; t++ {
		x.start[t] += x.start[t-1]
	}
	x.entries = make([]Entry, n)
	for i, l := range x.Links {
		for _, c := range s.cells[l] {
			x.entries[x.start[c.Slot]] = Entry{Link: int32(i), Channel: int32(c.Channel)}
			x.start[c.Slot]++
		}
	}
	if slots > 0 {
		copy(x.start[1:], x.start[:slots])
		x.start[0] = 0
	}
	return x
}

// Slots returns the number of slot buckets: the largest slot any cell
// uses, plus one.
func (x *SlotIndex) Slots() int { return len(x.start) - 1 }

// Slot returns slot t's entries.
func (x *SlotIndex) Slot(t int) []Entry { return x.entries[x.start[t]:x.start[t+1]] }

// Channels returns the largest channel any cell uses, plus one: the key
// range of a per-channel Tally.
func (x *SlotIndex) Channels() int { return x.channels }

// OutOfFrame returns the first cell outside the schedule's slotframe, in
// sorted-link order and then each link's assignment order.
func (x *SlotIndex) OutOfFrame() (Transmission, bool) { return x.outside, x.isOut }

// Endpoints resolves each link's sender and receiver to a dense index in
// [0, n), n being the number of distinct endpoints; ends[i] belongs to
// Links[i]. The indices rank the endpoints themselves, so a per-node Tally
// is sized by the schedule, never by the tree.
func (x *SlotIndex) Endpoints(tree *topology.Tree) (ends [][2]int32, n int, err error) {
	ids := make([]topology.NodeID, 2*len(x.Links))
	for i, l := range x.Links {
		if ids[2*i], ids[2*i+1], err = endpoints(tree, l); err != nil {
			return nil, 0, err
		}
	}
	nodes := slices.Clone(ids)
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	ends = make([][2]int32, len(x.Links))
	for i, id := range ids {
		j, _ := slices.BinarySearch(nodes, id)
		ends[i/2][i%2] = int32(j)
	}
	return ends, len(nodes), nil
}

// endpoints returns the sender and receiver node of a link given the tree.
func endpoints(tree *topology.Tree, l topology.Link) (sender, receiver topology.NodeID, err error) {
	parent, err := tree.Parent(l.Child)
	if err != nil {
		return 0, 0, err
	}
	if l.Direction == topology.Uplink {
		return l.Child, parent, nil
	}
	return parent, l.Child, nil
}

// Tally counts keys in [0, n) one slot at a time. Each key remembers the
// slot it was last counted in, so a new slot starts every count at zero
// without a reset pass; count each slot's entries together.
type Tally []struct{ slot, n int32 }

// NewTally returns a tally over keys [0, n).
func NewTally(n int) Tally { return make(Tally, n) }

// Add counts one use of key in slot t and returns the uses before it.
func (c Tally) Add(t int, key int32) int {
	k := &c[key]
	if k.slot != int32(t+1) {
		k.slot, k.n = int32(t+1), 0
	}
	k.n++
	return int(k.n) - 1
}

// Count returns the uses of key counted in slot t.
func (c Tally) Count(t int, key int32) int {
	if c[key].slot != int32(t+1) {
		return 0
	}
	return int(c[key].n)
}

// HalfDuplexViolations counts, slot by slot, pairs of distinct links that
// share a node, once per shared node: Σ n(n−1)/2 over (slot, node), n being
// the distinct links that use the node in the slot. An uplink/downlink pair
// of one child therefore scores 2, and a link's repeated cells in one slot
// count once.
func (x *SlotIndex) HalfDuplexViolations(tree *topology.Tree) (int, error) {
	ends, n, err := x.Endpoints(tree)
	if err != nil {
		return 0, err
	}
	nodes := NewTally(n)
	v := 0
	for t := range x.Slots() {
		prev := int32(-1)
		for _, e := range x.Slot(t) {
			if e.Link == prev {
				continue
			}
			prev = e.Link
			v += nodes.Add(t, ends[e.Link][0]) + nodes.Add(t, ends[e.Link][1])
		}
	}
	return v, nil
}

// SharedCell is a cell used by two or more distinct links, listed sorted.
type SharedCell struct {
	Cell  Cell
	Links []topology.Link
}

// SharedCells lists every cell used by two or more distinct links, in
// (slot, channel) order. A link using one cell twice is not a collision.
func (x *SlotIndex) SharedCells() []SharedCell {
	chans := NewTally(x.channels)
	last := make([]int32, x.channels) // the link that last counted the channel
	var out []SharedCell
	for t := range x.Slots() {
		b := x.Slot(t)
		from := len(out)
		for _, e := range b {
			if chans.Count(t, e.Channel) > 0 && last[e.Channel] == e.Link {
				continue // a link's entries are adjacent: this one repeats a cell
			}
			last[e.Channel] = e.Link
			if chans.Add(t, e.Channel) == 1 {
				out = append(out, SharedCell{Cell: Cell{Slot: t, Channel: int(e.Channel)}})
			}
		}
		found := out[from:]
		slices.SortFunc(found, func(a, b SharedCell) int { return a.Cell.Channel - b.Cell.Channel })
		for i := range found {
			found[i].Links = x.linksOn(b, int32(found[i].Cell.Channel))
		}
	}
	return out
}

// linksOn returns the distinct links in bucket b that use channel ch.
func (x *SlotIndex) linksOn(b []Entry, ch int32) []topology.Link {
	var out []topology.Link
	prev := int32(-1)
	for _, e := range b {
		if e.Channel == ch && e.Link != prev {
			out = append(out, x.Links[e.Link])
			prev = e.Link
		}
	}
	return out
}

// Validate checks that every assigned cell is inside the slotframe and that
// no two links share a cell, and (when a tree is supplied) that the schedule
// is half-duplex clean. It is the "effectiveness" invariant of the problem
// statement (§II-B); HARP-produced schedules must always pass. Of several
// violations it reports the first out-of-frame cell in link order, else the
// first shared cell in (slot, channel) order.
func (s *Schedule) Validate(tree *topology.Tree) error {
	x := s.Index()
	if tx, ok := x.OutOfFrame(); ok {
		return fmt.Errorf("schedule: %v assigned out-of-frame cell %v", tx.Link, tx.Cell)
	}
	if shared := x.SharedCells(); len(shared) > 0 {
		c := shared[0]
		return fmt.Errorf("schedule: cell %v shared by %d links %v", c.Cell, len(c.Links), c.Links)
	}
	if tree != nil {
		v, err := x.HalfDuplexViolations(tree)
		if err != nil {
			return err
		}
		if v > 0 {
			return fmt.Errorf("schedule: %d half-duplex violations", v)
		}
	}
	return nil
}
