package schedule_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/schedulers"
	"github.com/harpnet/harp/internal/topology"
)

// The map-keyed checkers the slot index replaced, kept only as the
// reference FuzzScheduleConflicts compares against.

func refEndpoints(tree *topology.Tree, l topology.Link) ([2]topology.NodeID, error) {
	parent, err := tree.Parent(l.Child)
	if err != nil {
		return [2]topology.NodeID{}, err
	}
	if l.Direction == topology.Uplink {
		return [2]topology.NodeID{l.Child, parent}, nil
	}
	return [2]topology.NodeID{parent, l.Child}, nil
}

func refCellSharers(s *schedule.Schedule) map[schedule.Cell][]topology.Link {
	byCell := make(map[schedule.Cell][]topology.Link)
	for _, l := range s.Links() {
		seen := make(map[schedule.Cell]bool)
		for _, c := range s.Cells(l) {
			if seen[c] {
				continue
			}
			seen[c] = true
			byCell[c] = append(byCell[c], l)
		}
	}
	for c, links := range byCell {
		if len(links) < 2 {
			delete(byCell, c)
		}
	}
	return byCell
}

func refHalfDuplex(s *schedule.Schedule, tree *topology.Tree) (int, error) {
	type slotNode struct {
		slot int
		node topology.NodeID
	}
	usage := make(map[slotNode]map[topology.Link]bool)
	for _, l := range s.Links() {
		ends, err := refEndpoints(tree, l)
		if err != nil {
			return 0, err
		}
		for _, c := range s.Cells(l) {
			for _, n := range ends {
				key := slotNode{slot: c.Slot, node: n}
				if usage[key] == nil {
					usage[key] = make(map[topology.Link]bool)
				}
				usage[key][l] = true
			}
		}
	}
	v := 0
	for _, links := range usage {
		v += len(links) * (len(links) - 1) / 2
	}
	return v, nil
}

// refValidate is the map-based Validate with its choice of violation made
// deterministic: the first out-of-frame cell in link order, else the
// lowest shared cell.
func refValidate(s *schedule.Schedule, tree *topology.Tree) error {
	for _, l := range s.Links() {
		for _, c := range s.Cells(l) {
			if !s.Frame.Contains(c) {
				return fmt.Errorf("schedule: %v assigned out-of-frame cell %v", l, c)
			}
		}
	}
	var low *schedule.Cell
	shared := refCellSharers(s)
	for c := range shared {
		if low == nil || c.Slot < low.Slot || c.Slot == low.Slot && c.Channel < low.Channel {
			low = &c
		}
	}
	if low != nil {
		links := shared[*low]
		return fmt.Errorf("schedule: cell %v shared by %d links %v", *low, len(links), links)
	}
	if tree != nil {
		v, err := refHalfDuplex(s, tree)
		if err != nil {
			return err
		}
		if v > 0 {
			return fmt.Errorf("schedule: %d half-duplex violations", v)
		}
	}
	return nil
}

func refAnalyzeCollisions(tree *topology.Tree, s *schedule.Schedule) (schedulers.CollisionStats, error) {
	var stats schedulers.CollisionStats
	type slotNode struct {
		slot int
		node topology.NodeID
	}
	nodesOf := make(map[topology.Link][2]topology.NodeID)
	for _, l := range s.Links() {
		ends, err := refEndpoints(tree, l)
		if err != nil {
			return stats, err
		}
		nodesOf[l] = ends
	}
	cellUsers := make(map[schedule.Cell]int)
	nodeSlotUsers := make(map[slotNode]int)
	tx := s.Transmissions()
	for _, t := range tx {
		cellUsers[t.Cell]++
		for _, n := range nodesOf[t.Link] {
			nodeSlotUsers[slotNode{slot: t.Cell.Slot, node: n}]++
		}
	}
	stats.TotalTransmissions = len(tx)
	for _, t := range tx {
		if cellUsers[t.Cell] > 1 {
			stats.CellCollisions++
			continue
		}
		for _, n := range nodesOf[t.Link] {
			if nodeSlotUsers[slotNode{slot: t.Cell.Slot, node: n}] > 1 {
				stats.HalfDuplexCollisions++
				break
			}
		}
	}
	return stats, nil
}

// conflictFrame is the frame fuzzed schedules are assigned in: small
// enough that random cells collide often.
var conflictFrame = schedule.Slotframe{Slots: 20, Channels: 4, DataSlots: 16, SlotDuration: 10_000_000}

// decodeConflicts builds a tree and a schedule from fuzz bytes:
//
//	data[0]        nodes n = 2 + data[0]%15, ids 0..n-1
//	data[1:n]      parent of node i is data[i] % i
//	data[n]        below 20: shrink Frame.Slots to data[n]+1 after assigning
//	then triples   (link, slot, channel): child 1 + (link>>1)%n (n itself
//	               is not in the tree), uplink if link is even
func decodeConflicts(t *testing.T, data []byte) (*topology.Tree, *schedule.Schedule) {
	tree := topology.New()
	s, err := schedule.NewSchedule(conflictFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		return tree, s
	}
	n := 2 + int(data[0])%15
	data = data[1:]
	for i := 1; i < n; i++ {
		parent := 0
		if len(data) > 0 {
			parent, data = int(data[0])%i, data[1:]
		}
		if err := tree.AddNode(topology.NodeID(i), topology.NodeID(parent)); err != nil {
			t.Fatal(err)
		}
	}
	shrink := -1
	if len(data) > 0 {
		if data[0] < 20 {
			shrink = int(data[0]) + 1
		}
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		l := topology.Link{Child: topology.NodeID(1 + int(data[0]>>1)%n), Direction: topology.Direction(data[0] & 1)}
		c := schedule.Cell{Slot: int(data[1]) % conflictFrame.Slots, Channel: int(data[2]) % conflictFrame.Channels}
		if err := s.Assign(l, c); err != nil {
			t.Fatal(err)
		}
	}
	if shrink > 0 {
		s.Frame.Slots = shrink
	}
	return tree, s
}

// encodeConflicts is decodeConflicts' inverse for hand-written seeds: a
// parent per node 1..len(parents), no shrink, and (child, dir, slot,
// channel) transmissions.
func encodeConflicts(parents []int, tx ...[4]int) []byte {
	n := len(parents) + 1
	out := []byte{byte(n - 2)}
	for _, p := range parents {
		out = append(out, byte(p))
	}
	out = append(out, 255)
	for _, x := range tx {
		out = append(out, byte((x[0]-1)%n<<1|x[1]), byte(x[2]), byte(x[3]))
	}
	return out
}

// FuzzScheduleConflicts checks the slot index against the map-keyed
// checkers it replaced: the half-duplex count, the shared-cell set, the
// Validate verdict and message, and the Fig. 11 collision statistics, on
// random trees of at most 16 nodes with shared cells, intra-link
// duplicates, uplink/downlink pairs of one child, unknown children and
// frames shrunk after Assign.
func FuzzScheduleConflicts(f *testing.F) {
	up, down := 0, 1
	// TestCellSharers: a cell shared by two links, then an intra-link
	// duplicate.
	f.Add(encodeConflicts([]int{0, 0}, [4]int{1, up, 3, 2}, [4]int{1, up, 0, 0}, [4]int{2, up, 3, 2}))
	f.Add(encodeConflicts([]int{0, 0}, [4]int{1, up, 3, 2}, [4]int{1, up, 3, 2}))
	// TestHalfDuplexViolations: node 1 sends and receives in slot 5; the
	// same links in different slots; a link of an unknown child.
	f.Add(encodeConflicts([]int{0, 1}, [4]int{1, up, 5, 0}, [4]int{2, up, 5, 1}))
	f.Add(encodeConflicts([]int{0, 1}, [4]int{1, up, 5, 0}, [4]int{2, up, 6, 0}))
	f.Add(encodeConflicts([]int{0, 1}, [4]int{3, up, 0, 0}))
	// An uplink/downlink pair of one child, and a shrunk frame.
	f.Add(encodeConflicts([]int{0, 1, 1}, [4]int{2, up, 4, 0}, [4]int{2, down, 4, 1}, [4]int{3, down, 4, 2}, [4]int{3, down, 4, 3}))
	f.Add([]byte{3, 0, 0, 1, 1, 4, 2, 15, 0, 3, 19, 1, 5, 19, 2, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, s := decodeConflicts(t, data)

		wantHD, wantErr := refHalfDuplex(s, tree)
		gotHD, gotErr := s.HalfDuplexViolations(tree)
		if (gotErr != nil) != (wantErr != nil) || gotHD != wantHD {
			t.Fatalf("HalfDuplexViolations = %d, %v; reference %d, %v", gotHD, gotErr, wantHD, wantErr)
		}

		want := refCellSharers(s)
		got := s.CellSharers()
		if len(got) != len(want) {
			t.Fatalf("CellSharers = %v; reference %v", got, want)
		}
		for i, sc := range got {
			if !reflect.DeepEqual(sc.Links, want[sc.Cell]) {
				t.Fatalf("CellSharers %v links %v; reference %v", sc.Cell, sc.Links, want[sc.Cell])
			}
			if i > 0 {
				prev := got[i-1].Cell
				if prev.Slot > sc.Cell.Slot || prev.Slot == sc.Cell.Slot && prev.Channel >= sc.Cell.Channel {
					t.Fatalf("CellSharers out of (slot, channel) order: %v before %v", prev, sc.Cell)
				}
			}
		}

		for _, tr := range []*topology.Tree{nil, tree} {
			got, want := s.Validate(tr), refValidate(s, tr)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Validate(tree=%v) = %v; reference %v", tr != nil, got, want)
			}
		}

		wantStats, wantErr := refAnalyzeCollisions(tree, s)
		gotStats, gotErr := schedulers.AnalyzeCollisions(tree, s)
		if (gotErr != nil) != (wantErr != nil) || gotStats != wantStats {
			t.Fatalf("AnalyzeCollisions = %+v, %v; reference %+v, %v", gotStats, gotErr, wantStats, wantErr)
		}
	})
}

// Of several shared cells Validate names the lowest, the same one on every
// run, however the schedule's links were inserted.
func TestValidateNamesLowestSharedCell(t *testing.T) {
	tree := topology.New()
	for i := 1; i <= 6; i++ {
		if err := tree.AddNode(topology.NodeID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	shared := []schedule.Cell{{Slot: 7, Channel: 1}, {Slot: 2, Channel: 3}, {Slot: 2, Channel: 1}}
	var first string
	for run := 0; run < 50; run++ {
		s, err := schedule.NewSchedule(conflictFrame)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range shared {
			for _, child := range []int{2*i + 1, 2*i + 2} {
				if err := s.Assign(topology.Link{Child: topology.NodeID(child), Direction: topology.Uplink}, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		err = s.Validate(tree)
		if err == nil {
			t.Fatal("Validate accepted three shared cells")
		}
		if run == 0 {
			first = err.Error()
			if !strings.Contains(first, "cell (2,1) shared by 2 links") {
				t.Fatalf("Validate = %q, want it to name the lowest cell (2,1)", first)
			}
		} else if err.Error() != first {
			t.Fatalf("run %d: Validate = %q, run 0 said %q", run, err, first)
		}
	}
}

// Frame is exported, so it can shrink after Assign. The checks still count
// every cell, report the out-of-frame one and never index past the frame.
func TestConflictsOnShrunkFrame(t *testing.T) {
	tree := topology.New()
	if err := tree.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddNode(2, 1); err != nil {
		t.Fatal(err)
	}
	s, err := schedule.NewSchedule(conflictFrame)
	if err != nil {
		t.Fatal(err)
	}
	up1 := topology.Link{Child: 1, Direction: topology.Uplink}
	up2 := topology.Link{Child: 2, Direction: topology.Uplink}
	down1 := topology.Link{Child: 1, Direction: topology.Downlink}
	// Node 1 uses its radio three times in slot 18: up1 and up2 share it
	// (1), down1 shares both of up1's nodes (2) and node 1 with up2 (1).
	for _, a := range []struct {
		l topology.Link
		c schedule.Cell
	}{{up1, schedule.Cell{Slot: 18, Channel: 0}}, {up2, schedule.Cell{Slot: 18, Channel: 1}}, {down1, schedule.Cell{Slot: 18, Channel: 2}}, {up1, schedule.Cell{Slot: 3, Channel: 0}}} {
		if err := s.Assign(a.l, a.c); err != nil {
			t.Fatal(err)
		}
	}
	s.Frame.Slots = 10
	v, err := s.HalfDuplexViolations(tree)
	if err != nil || v != 4 {
		t.Errorf("HalfDuplexViolations on a shrunk frame = %d, %v; want 4", v, err)
	}
	if ref, _ := refHalfDuplex(s, tree); ref != v {
		t.Errorf("HalfDuplexViolations = %d, reference %d", v, ref)
	}
	want := "schedule: uplink[1] assigned out-of-frame cell (18,0)"
	if err := s.Validate(tree); err == nil || err.Error() != want {
		t.Errorf("Validate on a shrunk frame = %v, want %q", err, want)
	}
	if got := s.CellSharers(); len(got) != 0 {
		t.Errorf("CellSharers = %v, want none", got)
	}
	stats, err := schedulers.AnalyzeCollisions(tree, s)
	if err != nil || stats.TotalTransmissions != 4 || stats.HalfDuplexCollisions != 3 {
		t.Errorf("AnalyzeCollisions on a shrunk frame = %+v, %v; want 4 transmissions, 3 half-duplex", stats, err)
	}
}

// allocBytes returns the heap bytes one call of f allocates. It measures
// the way testing.AllocsPerRun does, with GOMAXPROCS(1) while measuring,
// and keeps the cheapest of a few trials: TotalAlloc is process-wide, so
// another goroutine's allocation can only add to a trial.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	const trials, runs = 5, 50
	best := uint64(math.MaxUint64)
	for trial := 0; trial < trials; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return best
}

// Checking a committed adjustment's schedule costs the same against a
// 50 000-node fleet as against a 50-node one: nothing the checks allocate
// is sized by the tree.
func TestValidateAllocationIndependentOfTreeSize(t *testing.T) {
	s := twentyLinks(t)
	small, large := heapTree(t, 50), heapTree(t, 50000)
	validate := func(tree *topology.Tree) func() {
		return func() {
			if err := s.Validate(tree); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := allocBytes(validate(small)), allocBytes(validate(large)); a != b {
		t.Errorf("Validate allocates %d B against a 50-node tree, %d B against a 50 000-node tree", a, b)
	}
}
