package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// layoutOverlapFree checks that a layout places all non-empty comps inside
// a width x height box without overlap.
func layoutOverlapFree(width, height int, layout Layout, comps []Component) bool {
	type rect struct{ x, y, w, h int }
	var placed []rect
	for slot, c := range comps {
		if c.Empty() {
			continue
		}
		off := layout.At(slot)
		if !off.Placed {
			return false
		}
		if off.Slot < 0 || off.Channel < 0 || off.Slot+c.Slots > width || off.Channel+c.Channels > height {
			return false
		}
		placed = append(placed, rect{off.Slot, off.Channel, c.Slots, c.Channels})
	}
	for i := range placed {
		for j := i + 1; j < len(placed); j++ {
			a, b := placed[i], placed[j]
			if a.x < b.x+b.w && b.x < a.x+a.w && a.y < b.y+b.h && b.y < a.y+a.h {
				return false
			}
		}
	}
	return true
}

// randomPackedLayout builds a consistent (layout, comps) pair by child slot
// by packing random components left to right on rows of a width x height
// box.
func randomPackedLayout(rng *rand.Rand, width, height, n int) (Layout, []Component) {
	var layout Layout
	var comps []Component
	x, y, rowH := 0, 0, 0
	for i := 0; i < n; i++ {
		w := 1 + rng.Intn(4)
		h := 1 + rng.Intn(2)
		if x+w > width {
			x = 0
			y += rowH
			rowH = 0
		}
		if y+h > height {
			break
		}
		comps = append(comps, Component{Slots: w, Channels: h})
		layout = append(layout, Offset{Slot: x, Channel: y, Placed: true})
		x += w
		if h > rowH {
			rowH = h
		}
	}
	return layout, comps
}

func TestMinimalExtensionGrowsJustEnough(t *testing.T) {
	// Host [4,1] with children [2,1] and [2,1]; child 1 grows to [3,1].
	// Slot growth is minimised first (the paper's priority), so the host
	// grows a channel instead of a slot: [4,2], with the sibling unmoved.
	layout := Layout{{Slot: 0, Placed: true}, {Slot: 2, Placed: true}}
	comps := []Component{{Slots: 2, Channels: 1}, {Slots: 2, Channels: 1}}
	comp, newLayout, ok := MinimalExtension(Component{Slots: 4, Channels: 1}, layout, comps, 0, Component{Slots: 3, Channels: 1}, 16)
	if !ok {
		t.Fatal("extension rejected")
	}
	if comp.Slots != 4 || comp.Channels != 2 {
		t.Errorf("extension = %v, want [4,2]", comp)
	}
	// Sibling stays in place.
	if newLayout[1] != (Offset{Slot: 2, Placed: true}) {
		t.Errorf("sibling moved to %v", newLayout[1])
	}
	merged := []Component{{Slots: 3, Channels: 1}, comps[1]}
	if !layoutOverlapFree(comp.Slots, comp.Channels, newLayout, merged) {
		t.Error("extension layout overlaps")
	}
}

func TestMinimalExtensionPrefersChannelGrowthWhenFree(t *testing.T) {
	// Host [4,1]: child 1 [4,1] fills it; child 2 appears as [4,1]. Growing
	// channels keeps the slot extent (the paper's priority), so the minimal
	// extension is [4,2].
	layout := Layout{{Slot: 0, Placed: true}}
	comps := []Component{{Slots: 4, Channels: 1}, {}}
	comp, _, ok := MinimalExtension(Component{Slots: 4, Channels: 1}, layout, comps, 1, Component{Slots: 4, Channels: 1}, 16)
	if !ok {
		t.Fatal("extension rejected")
	}
	if comp.Slots != 4 || comp.Channels != 2 {
		t.Errorf("extension = %v, want [4,2]", comp)
	}
}

func TestMinimalExtensionRejectsOverBudget(t *testing.T) {
	if _, _, ok := MinimalExtension(Component{}, nil, []Component{{}}, 0, Component{Slots: 1, Channels: 20}, 16); ok {
		t.Error("over-budget channel extent accepted")
	}
}

func TestMinimalExtensionEmptyHost(t *testing.T) {
	comp, layout, ok := MinimalExtension(Component{}, nil, []Component{{}}, 0, Component{Slots: 3, Channels: 2}, 16)
	if !ok {
		t.Fatal("insertion into empty host rejected")
	}
	if comp.Slots != 3 || comp.Channels != 2 {
		t.Errorf("extension = %v, want [3,2]", comp)
	}
	if layout.At(0) != (Offset{Placed: true}) {
		t.Errorf("sole child at %v, want origin", layout.At(0))
	}
}

func TestMinimalExtensionPropertyValid(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width, height := 4+rng.Intn(8), 1+rng.Intn(3)
		layout, comps := randomPackedLayout(rng, width, height, 1+rng.Intn(6))
		target := rng.Intn(len(comps) + 1) // may be new
		grown := Component{Slots: 1 + rng.Intn(6), Channels: 1 + rng.Intn(3)}
		if target < len(comps) {
			old := comps[target]
			grown = Component{Slots: old.Slots + 1 + rng.Intn(3), Channels: old.Channels}
		} else {
			comps = append(comps, Component{})
		}
		host := Component{Slots: width, Channels: height}
		comp, newLayout, ok := MinimalExtension(host, layout, comps, target, grown, 16)
		if !ok {
			return false // always satisfiable within the generous budget
		}
		// Never shrinks, never exceeds the channel budget.
		if comp.Slots < host.Slots || comp.Channels < host.Channels || comp.Channels > 16 {
			return false
		}
		merged := slices.Clone(comps)
		merged[target] = grown
		return layoutOverlapFree(comp.Slots, comp.Channels, newLayout, merged)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdjustLayoutPropertyValid(t *testing.T) {
	// Whenever AdjustLayout succeeds, the result is in bounds, overlap-free
	// and contains every component; unmoved siblings really are unmoved.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width, height := 6+rng.Intn(10), 2+rng.Intn(4)
		layout, comps := randomPackedLayout(rng, width, height-1, 1+rng.Intn(6))
		if len(comps) == 0 {
			return true
		}
		target := rng.Intn(len(comps))
		grown := Component{Slots: comps[target].Slots + rng.Intn(3), Channels: comps[target].Channels}
		newLayout, moved, ok := AdjustLayout(width, height, layout, comps, target, grown)
		if !ok {
			return true // infeasibility is a legal answer
		}
		merged := slices.Clone(comps)
		merged[target] = grown
		if !layoutOverlapFree(width, height, newLayout, merged) {
			return false
		}
		for slot, off := range layout {
			if slot == target || slices.Contains(moved, slot) {
				continue
			}
			if newLayout[slot] != off {
				return false // silently moved
			}
		}
		return slices.IsSorted(moved)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompliantOrderShape(t *testing.T) {
	one := schedule.Region{Slots: 1, Channels: 1}
	var parts [2]LayerRegions
	parts[topology.Uplink] = LayerRegions{Base: 1, Regions: []schedule.Region{one, {}, one}}
	parts[topology.Downlink] = LayerRegions{Base: 1, Regions: []schedule.Region{one, one}}
	order := CompliantOrder(parts)
	want := []DirLayer{
		{Direction: topology.Uplink, Layer: 3},
		{Direction: topology.Uplink, Layer: 1},
		{Direction: topology.Downlink, Layer: 1},
		{Direction: topology.Downlink, Layer: 2},
	}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
