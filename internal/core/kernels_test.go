package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// fuzzReader hands out small bounded integers from fuzz input, zeros once
// it is spent.
type fuzzReader struct{ b []byte }

// next returns a value in [0, n).
func (r *fuzzReader) next(n int) int {
	if len(r.b) == 0 {
		return 0
	}
	v := int(r.b[0]) % n
	r.b = r.b[1:]
	return v
}

// kernelCase is one decoded kernel instance: a host's sorted children with
// their components and layout, in both the slot form the kernels take and
// the map form of the reference.
type kernelCase struct {
	ids       []topology.NodeID
	comps     []Component
	layout    Layout
	compMap   map[topology.NodeID]Component
	layoutMap refLayout
	width     int // host slots
	height    int // host channels
	j         int // the child whose component grows or appears
	newComp   Component
}

// decodeKernelCase reads up to 8 children with components of at most 5
// slots by 4 channels, each with or without a component and with or
// without a placement in a host of at most 16 x 16, plus a target child
// (absent or present) and its new component. The slot layout is then cut
// to a length of at most the child count, as Compose and InsertSlot leave
// layouts: slots past the cut are absent in both forms.
func decodeKernelCase(r *fuzzReader) kernelCase {
	n := 1 + r.next(8)
	kc := kernelCase{
		ids:       make([]topology.NodeID, n),
		comps:     make([]Component, n),
		layout:    make(Layout, n),
		compMap:   make(map[topology.NodeID]Component),
		layoutMap: make(refLayout),
		width:     1 + r.next(16),
		height:    1 + r.next(16),
	}
	id := 0
	for i := range kc.ids {
		id += 1 + r.next(4)
		kc.ids[i] = topology.NodeID(id)
		flags := r.next(4)
		c := Component{Slots: r.next(6), Channels: r.next(5)}
		if flags&1 != 0 {
			kc.comps[i] = c
			kc.compMap[kc.ids[i]] = c
		}
		if flags&2 != 0 {
			off := Offset{Slot: r.next(kc.width), Channel: r.next(kc.height)}
			kc.layoutMap[kc.ids[i]] = off
			kc.layout[i] = Offset{Slot: off.Slot, Channel: off.Channel, Placed: true}
		}
	}
	cut := n - r.next(n+1)
	for i := cut; i < n; i++ {
		delete(kc.layoutMap, kc.ids[i])
	}
	kc.layout = kc.layout[:cut:cut]
	kc.j = r.next(n)
	kc.newComp = Component{Slots: r.next(9), Channels: r.next(5)}
	return kc
}

// sameLayout reports how a slot layout differs from a map layout over the
// same children ("" when they agree).
func sameLayout(ids []topology.NodeID, got Layout, want refLayout) string {
	n := 0
	for i, id := range ids {
		w, ok := want[id]
		g := got.At(i)
		if ok {
			n++
		}
		if ok != g.Placed || ok && (w.Slot != g.Slot || w.Channel != g.Channel) {
			return fmt.Sprintf("child %d: got %+v, reference %+v (placed %v)", id, g, w, ok)
		}
	}
	if n != len(want) {
		return fmt.Sprintf("reference places %d children, %d of them known", len(want), n)
	}
	return ""
}

// decodeRootParts reads the gateway's layer partitions per direction: a
// base layer and up to 6 layers, each absent or a region of 1–8 slots.
func decodeRootParts(r *fuzzReader) ([2]LayerRegions, [2]map[int]schedule.Region) {
	var parts [2]LayerRegions
	var maps [2]map[int]schedule.Region
	for d := range parts {
		base := r.next(3)
		regs := make([]schedule.Region, r.next(7))
		maps[d] = make(map[int]schedule.Region)
		for i := range regs {
			if r.next(3) == 0 {
				continue // absent
			}
			regs[i] = schedule.Region{Slot: r.next(40), Slots: 1 + r.next(8), Channels: 1 + r.next(16)}
			maps[d][base+i] = regs[i]
		}
		parts[d] = LayerRegions{Base: base, Regions: regs}
	}
	return parts, maps
}

// FuzzKernelsMatchMapReference checks the child-slot kernels against the
// NodeID-map kernels they replaced (kernels_ref_test.go): AdjustLayout's
// layout, moved list and verdict, MinimalExtension, LayoutValid,
// SplitPartition's regions and error text, AssignCells' runs expanded to
// cells, and the gateway's ReflowRoot and RootHost, on up to 8 children
// with absent components, unplaced children, layouts shorter than the
// child list and a grown or newly appearing child.
func FuzzKernelsMatchMapReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 7, 1, 0, 3, 2, 1, 0, 0, 1, 3, 2, 1, 1, 0, 0, 3, 1, 1, 4, 0, 2, 3, 3, 1, 5, 4, 2, 1, 0, 9, 3, 2})
	f.Add([]byte{3, 11, 1, 1, 3, 4, 1, 0, 0, 2, 3, 3, 1, 2, 0, 1, 3, 2, 1, 4, 0, 2, 7, 1, 12, 4, 1, 3, 2, 2, 1, 6, 3, 5, 1, 4, 2, 3, 1, 1, 3, 2, 5, 7})
	f.Add([]byte{7, 15, 3, 0, 3, 5, 2, 1, 1, 1, 3, 1, 1, 2, 3, 0, 3, 2, 2, 0, 1, 2, 3, 4, 1, 3, 2, 1, 3, 3, 2, 2, 0, 3, 4, 1, 2, 1, 0, 1, 2, 2, 3, 6, 4, 8, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		kc := decodeKernelCase(r)
		jid := kc.ids[kc.j]

		gotL, gotM, gotOK := AdjustLayout(kc.width, kc.height, kc.layout, kc.comps, kc.j, kc.newComp)
		wantL, wantM, wantOK := refAdjustLayout(kc.width, kc.height, kc.layoutMap, kc.compMap, jid, kc.newComp)
		if gotOK != wantOK {
			t.Fatalf("AdjustLayout ok = %v, reference %v", gotOK, wantOK)
		}
		if gotOK {
			if diff := sameLayout(kc.ids, gotL, wantL); diff != "" {
				t.Fatalf("AdjustLayout layout: %s", diff)
			}
			moved := make([]topology.NodeID, 0, len(gotM))
			for _, m := range gotM {
				moved = append(moved, kc.ids[m])
			}
			if !slices.Equal(moved, wantM) {
				t.Fatalf("AdjustLayout moved %v, reference %v", moved, wantM)
			}
		}

		host := Component{Slots: r.next(kc.width + 1), Channels: r.next(kc.height + 1)}
		gotC, gotL, gotOK := MinimalExtension(host, kc.layout, kc.comps, kc.j, kc.newComp, 16)
		wantC, wantL, wantOK := refMinimalExtension(host, kc.layoutMap, kc.compMap, jid, kc.newComp, 16)
		if gotOK != wantOK || gotC != wantC {
			t.Fatalf("MinimalExtension = %v, %v; reference %v, %v", gotC, gotOK, wantC, wantOK)
		}
		if diff := sameLayout(kc.ids, gotL, wantL); gotOK && diff != "" {
			t.Fatalf("MinimalExtension layout: %s", diff)
		}

		// The reference rejects a placed child missing from the component
		// map, where the slot form reads an empty component; so every
		// placed child brings its own, empty or not.
		parent := schedule.Region{Slot: r.next(20), Channel: r.next(4), Slots: kc.width, Channels: kc.height}
		splitComps := make(map[topology.NodeID]Component)
		for i, id := range kc.ids {
			if kc.layout.At(i).Placed {
				splitComps[id] = kc.comps[i]
			}
		}
		if got, want := LayoutValid(kc.width, kc.height, kc.layout, kc.comps), refLayoutValid(kc.width, kc.height, kc.layoutMap, splitComps); got != want {
			t.Fatalf("LayoutValid = %v, reference %v", got, want)
		}
		split := make([]schedule.Region, len(kc.ids))
		err := SplitPartition(parent, kc.ids, kc.layout, kc.comps, split)
		wantSplit, wantErr := refSplitPartition(parent, kc.layoutMap, splitComps)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("SplitPartition error %v, reference %v", err, wantErr)
		}
		if err == nil {
			for i, id := range kc.ids {
				if w, ok := wantSplit[id]; ok != kc.layout.At(i).Placed || ok && split[i] != w {
					t.Fatalf("SplitPartition child %d: %v, reference %v (%v)", id, split[i], w, ok)
				}
			}
		}

		p := schedule.Region{Slot: r.next(20), Channel: r.next(3), Slots: r.next(12), Channels: 1 + r.next(3)}
		demands := make([]LinkDemand, len(kc.ids))
		for i, id := range kc.ids {
			demands[i] = LinkDemand{
				Link:    topology.Link{Child: id, Direction: topology.Direction(r.next(2))},
				Cells:   r.next(7) - 1,
				TopRate: float64(r.next(4)),
			}
		}
		runs := make([]Run, len(demands))
		var s AssignScratch
		err = AssignCells(p, demands, runs, &s)
		wantCells, wantErr := refAssignCells(p, demands)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("AssignCells error %v, reference %v", err, wantErr)
		}
		if err == nil {
			assigned := 0
			for i, d := range demands {
				got := runs[i].AppendCells(nil, p)
				if !slices.Equal(got, wantCells[d.Link]) {
					t.Fatalf("AssignCells %v: %v, reference %v", d.Link, got, wantCells[d.Link])
				}
				if len(got) > 0 {
					assigned++
				}
			}
			if assigned != len(wantCells) {
				t.Fatalf("AssignCells assigned %d links, reference %d", assigned, len(wantCells))
			}
		}

		parts, partMaps := decodeRootParts(r)
		target := DirLayer{Direction: topology.Direction(r.next(2)), Layer: r.next(9)}
		dataSlots := 1 + r.next(80)
		frame := schedule.Slotframe{Slots: dataSlots, Channels: 1 + r.next(16), DataSlots: dataSlots}
		comp := Component{Slots: r.next(10), Channels: 1 + r.next(16)}
		gotP, gotOK := ReflowRoot(parts, target, comp, frame)
		wantP, wantOK := refReflowRoot(partMaps, target, comp, frame)
		if gotOK != wantOK || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("ReflowRoot = %v, %v; reference %v, %v", gotP, gotOK, wantP, wantOK)
		}

		gotL, gotP, gotOK = RootHost(parts, target, kc.layout, kc.comps, kc.j, kc.newComp, frame)
		wantL, wantP, wantOK = refRootHost(partMaps, target, kc.layoutMap, kc.compMap, jid, kc.newComp, frame)
		if gotOK != wantOK || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("RootHost placements = %v, %v; reference %v, %v", gotP, gotOK, wantP, wantOK)
		}
		if diff := sameLayout(kc.ids, gotL, wantL); gotOK && diff != "" {
			t.Fatalf("RootHost layout: %s", diff)
		}
	})
}

// With warm caller storage, the two kernels every partition grant and
// every reschedule run allocate nothing.
func TestSplitAndAssignAllocateNothingWarm(t *testing.T) {
	children := []topology.NodeID{2, 5, 6, 9, 11, 14}
	comps := []Component{{Slots: 2, Channels: 1}, {Slots: 3, Channels: 2}, {}, {Slots: 1, Channels: 1}, {Slots: 4, Channels: 1}, {Slots: 2, Channels: 2}}
	layout := Layout{{Slot: 0, Placed: true}, {Slot: 2, Placed: true}, {}, {Slot: 5, Placed: true}, {Slot: 6, Placed: true}, {Slot: 10, Placed: true}}
	parent := schedule.Region{Slot: 40, Channel: 3, Slots: 12, Channels: 2}
	split := make([]schedule.Region, len(children))
	if a := testing.AllocsPerRun(100, func() {
		if err := SplitPartition(parent, children, layout, comps, split); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SplitPartition allocates %.1f times per call with warm storage, want 0", a)
	}

	own := schedule.Region{Slot: 7, Slots: 20, Channels: 1}
	demands := make([]LinkDemand, len(children))
	for i, c := range children {
		demands[i] = LinkDemand{Link: topology.Link{Child: c}, Cells: i % 4, TopRate: float64(i % 3)}
	}
	runs := make([]Run, len(demands))
	var s AssignScratch
	if a := testing.AllocsPerRun(100, func() {
		if err := AssignCells(own, demands, runs, &s); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("AssignCells allocates %.1f times per call with warm storage, want 0", a)
	}
}

// AdjustLayout on child slots allocates less than the NodeID-map kernel it
// replaced, on one fixed instance: six [2,1] siblings in a 14x1 strip with
// a 2-slot gap, the fourth growing to 4 slots, which evicts a neighbour.
func TestAdjustLayoutAllocsBelowMapReference(t *testing.T) {
	ids := []topology.NodeID{3, 4, 8, 10, 12, 15}
	comps := make([]Component, len(ids))
	layout := make(Layout, len(ids))
	compMap := make(map[topology.NodeID]Component)
	layoutMap := make(refLayout)
	for i, id := range ids {
		comps[i] = Component{Slots: 2, Channels: 1}
		layout[i] = Offset{Slot: 2 * i, Placed: true}
		compMap[id] = comps[i]
		layoutMap[id] = Offset{Slot: 2 * i}
	}
	grown := Component{Slots: 4, Channels: 1}
	newL, moved, ok := AdjustLayout(14, 1, layout, comps, 3, grown)
	wantL, wantM, wantOK := refAdjustLayout(14, 1, layoutMap, compMap, ids[3], grown)
	if !ok || !wantOK || sameLayout(ids, newL, wantL) != "" || len(moved) != len(wantM) || len(moved) < 2 {
		t.Fatalf("instance: moved %v (reference %v), ok %v/%v", moved, wantM, ok, wantOK)
	}
	slotAllocs := testing.AllocsPerRun(100, func() { AdjustLayout(14, 1, layout, comps, 3, grown) })
	mapAllocs := testing.AllocsPerRun(100, func() { refAdjustLayout(14, 1, layoutMap, compMap, ids[3], grown) })
	t.Logf("AdjustLayout allocations per call: %.0f on child slots, %.0f on NodeID maps", slotAllocs, mapAllocs)
	if slotAllocs >= mapAllocs {
		t.Errorf("AdjustLayout allocates %.0f times per call, the map reference %.0f", slotAllocs, mapAllocs)
	}
}
