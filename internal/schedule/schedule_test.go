package schedule

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/harpnet/harp/internal/topology"
)

func testFrame() Slotframe {
	return Slotframe{Slots: 20, Channels: 4, DataSlots: 16, SlotDuration: 10 * time.Millisecond}
}

func TestSlotframeValidate(t *testing.T) {
	if err := Testbed().Validate(); err != nil {
		t.Errorf("testbed frame invalid: %v", err)
	}
	bad := []Slotframe{
		{Slots: 0, Channels: 4, DataSlots: 1, SlotDuration: time.Millisecond},
		{Slots: 10, Channels: 0, DataSlots: 1, SlotDuration: time.Millisecond},
		{Slots: 10, Channels: 4, DataSlots: 0, SlotDuration: time.Millisecond},
		{Slots: 10, Channels: 4, DataSlots: 11, SlotDuration: time.Millisecond},
		{Slots: 10, Channels: 4, DataSlots: 5, SlotDuration: 0},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad frame %d accepted", i)
		}
	}
}

func TestSlotframeQueries(t *testing.T) {
	f := Testbed()
	if f.Duration() != 1990*time.Millisecond {
		t.Errorf("Duration = %v, want 1.99s", f.Duration())
	}
	if !f.Contains(Cell{Slot: 198, Channel: 15}) || f.Contains(Cell{Slot: 199, Channel: 0}) {
		t.Error("Contains boundary wrong")
	}
	if f.Contains(Cell{Slot: -1, Channel: 0}) || f.Contains(Cell{Slot: 0, Channel: 16}) {
		t.Error("Contains out-of-range wrong")
	}
	if !f.InDataSubframe(Cell{Slot: 189, Channel: 0}) || f.InDataSubframe(Cell{Slot: 190, Channel: 0}) {
		t.Error("InDataSubframe boundary wrong")
	}
	dr := f.DataRegion()
	if dr.Slots != 190 || dr.Channels != 16 || dr.Slot != 0 || dr.Channel != 0 {
		t.Errorf("DataRegion = %v", dr)
	}
}

func TestRegionGeometry(t *testing.T) {
	r := Region{Slot: 2, Channel: 1, Slots: 4, Channels: 2}
	if r.CellCount() != 8 {
		t.Errorf("CellCount = %d, want 8", r.CellCount())
	}
	if !r.Contains(Cell{Slot: 2, Channel: 1}) || !r.Contains(Cell{Slot: 5, Channel: 2}) {
		t.Error("Contains interior failed")
	}
	if r.Contains(Cell{Slot: 6, Channel: 1}) || r.Contains(Cell{Slot: 2, Channel: 3}) {
		t.Error("Contains exterior failed")
	}
	if !r.Overlaps(Region{Slot: 5, Channel: 2, Slots: 3, Channels: 3}) {
		t.Error("Overlaps failed for touching-corner overlap")
	}
	if r.Overlaps(Region{Slot: 6, Channel: 1, Slots: 2, Channels: 2}) {
		t.Error("Overlaps reported for adjacent region")
	}
	if !r.ContainsRegion(Region{Slot: 3, Channel: 1, Slots: 2, Channels: 1}) {
		t.Error("ContainsRegion failed for interior region")
	}
	if r.ContainsRegion(Region{Slot: 3, Channel: 1, Slots: 4, Channels: 1}) {
		t.Error("ContainsRegion accepted overhanging region")
	}
	if !r.ContainsRegion(Region{}) {
		t.Error("empty region must be contained everywhere")
	}
	if (Region{}).Overlaps(r) || r.Overlaps(Region{}) {
		t.Error("empty region cannot overlap")
	}
	if got := len(r.Cells()); got != 8 {
		t.Errorf("Cells() len = %d, want 8", got)
	}
	if (Region{}).Cells() != nil {
		t.Error("empty region should enumerate no cells")
	}
	if r.String() == "" || (Cell{}).String() == "" {
		t.Error("String empty")
	}
}

func TestRegionDistance(t *testing.T) {
	a := Region{Slot: 0, Slots: 4, Channels: 1}
	b := Region{Slot: 6, Slots: 2, Channels: 1}
	if a.Distance(b) != 2 || b.Distance(a) != 2 {
		t.Errorf("Distance = %d/%d, want 2", a.Distance(b), b.Distance(a))
	}
	c := Region{Slot: 4, Slots: 1, Channels: 1}
	if a.Distance(c) != 0 {
		t.Errorf("touching regions distance = %d, want 0", a.Distance(c))
	}
	if a.Distance(a) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestScheduleAssignAndQuery(t *testing.T) {
	s, err := NewSchedule(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	l := topology.Link{Child: 1, Direction: topology.Uplink}
	if err := s.Assign(l, Cell{Slot: 0, Channel: 0}, Cell{Slot: 1, Channel: 1}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Cells(l)); got != 2 {
		t.Errorf("Cells = %d, want 2", got)
	}
	if s.TotalCells() != 2 {
		t.Errorf("TotalCells = %d, want 2", s.TotalCells())
	}
	if err := s.Assign(l, Cell{Slot: 99, Channel: 0}); !errors.Is(err, ErrOutOfFrame) {
		t.Errorf("want ErrOutOfFrame, got %v", err)
	}
	if _, err := NewSchedule(Slotframe{}); err == nil {
		t.Error("NewSchedule accepted invalid frame")
	}
}

func TestCellSharers(t *testing.T) {
	s, _ := NewSchedule(testFrame())
	l1 := topology.Link{Child: 1, Direction: topology.Uplink}
	l2 := topology.Link{Child: 2, Direction: topology.Uplink}
	shared := Cell{Slot: 3, Channel: 2}
	if err := s.Assign(l1, shared, Cell{Slot: 0, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(l2, shared); err != nil {
		t.Fatal(err)
	}
	sharers := s.CellSharers()
	if len(sharers) != 1 || sharers[0].Cell != shared {
		t.Fatalf("sharers = %v, want exactly the shared cell", sharers)
	}
	if links := sharers[0].Links; len(links) != 2 || links[0] != l1 || links[1] != l2 {
		t.Errorf("shared cell has links %v, want [%v %v]", links, l1, l2)
	}
	// Duplicate cell within one link is not a collision.
	s2, _ := NewSchedule(testFrame())
	if err := s2.Assign(l1, shared, shared); err != nil {
		t.Fatal(err)
	}
	if len(s2.CellSharers()) != 0 {
		t.Error("intra-link duplicate counted as collision")
	}
}

func TestHalfDuplexViolations(t *testing.T) {
	tree := topology.New()
	if err := tree.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddNode(2, 1); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSchedule(testFrame())
	// Node 1 both sends to gateway and receives from node 2 in slot 5 on
	// different channels: half-duplex violation at node 1.
	if err := s.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, Cell{Slot: 5, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(topology.Link{Child: 2, Direction: topology.Uplink}, Cell{Slot: 5, Channel: 1}); err != nil {
		t.Fatal(err)
	}
	v, err := s.HalfDuplexViolations(tree)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("violations = %d, want 1", v)
	}
	if err := s.Validate(tree); err == nil {
		t.Error("Validate accepted half-duplex violation")
	}
	// Different slots: no violation.
	s2, _ := NewSchedule(testFrame())
	if err := s2.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, Cell{Slot: 5, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Assign(topology.Link{Child: 2, Direction: topology.Uplink}, Cell{Slot: 6, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	v, _ = s2.HalfDuplexViolations(tree)
	if v != 0 {
		t.Errorf("violations = %d, want 0", v)
	}
	if err := s2.Validate(tree); err != nil {
		t.Errorf("clean schedule rejected: %v", err)
	}
	// Unknown link endpoint surfaces an error.
	s3, _ := NewSchedule(testFrame())
	if err := s3.Assign(topology.Link{Child: 42, Direction: topology.Uplink}, Cell{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.HalfDuplexViolations(tree); err == nil {
		t.Error("unknown endpoint accepted")
	}
}

func TestValidateCellCollision(t *testing.T) {
	tree := topology.New()
	if err := tree.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	s, _ := NewSchedule(testFrame())
	shared := Cell{Slot: 1, Channel: 1}
	if err := s.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, shared); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(topology.Link{Child: 2, Direction: topology.Downlink}, shared); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(nil); err == nil {
		t.Error("Validate accepted shared cell")
	}
}

func TestTransmissionsDeterministic(t *testing.T) {
	s, _ := NewSchedule(testFrame())
	l1 := topology.Link{Child: 2, Direction: topology.Downlink}
	l2 := topology.Link{Child: 1, Direction: topology.Uplink}
	if err := s.Assign(l1, Cell{Slot: 1, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(l2, Cell{Slot: 0, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	tx := s.Transmissions()
	if len(tx) != 2 {
		t.Fatalf("transmissions = %d, want 2", len(tx))
	}
	if tx[0].Link != l2 {
		t.Errorf("uplinks must sort before downlinks, got %v first", tx[0].Link)
	}
}

func TestRegionPropertyOverlapSymmetric(t *testing.T) {
	prop := func(s1, c1, w1, h1, s2, c2, w2, h2 uint8) bool {
		a := Region{Slot: int(s1 % 30), Channel: int(c1 % 8), Slots: int(w1%6) + 1, Channels: int(h1%4) + 1}
		b := Region{Slot: int(s2 % 30), Channel: int(c2 % 8), Slots: int(w2%6) + 1, Channels: int(h2%4) + 1}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		// Overlap iff some cell of a is contained in b.
		brute := false
		for _, cell := range a.Cells() {
			if b.Contains(cell) {
				brute = true
				break
			}
		}
		return a.Overlaps(b) == brute
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRegionPropertyContainsConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		outer := Region{Slot: rng.Intn(10), Channel: rng.Intn(4), Slots: 1 + rng.Intn(10), Channels: 1 + rng.Intn(4)}
		inner := Region{
			Slot:     outer.Slot + rng.Intn(outer.Slots),
			Channel:  outer.Channel + rng.Intn(outer.Channels),
			Slots:    1,
			Channels: 1,
		}
		if !outer.ContainsRegion(inner) {
			return false
		}
		for _, c := range inner.Cells() {
			if !outer.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
