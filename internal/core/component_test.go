package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/harpnet/harp/internal/topology"
)

func TestComponentBasics(t *testing.T) {
	c := Component{Slots: 4, Channels: 2}
	if c.Cells() != 8 || c.Empty() {
		t.Errorf("component %v: cells=%d empty=%v", c, c.Cells(), c.Empty())
	}
	if !(Component{}).Empty() || (Component{}).Cells() != 0 {
		t.Error("zero component should be empty")
	}
	r := c.Region(3, 1)
	if r.Slot != 3 || r.Channel != 1 || r.Slots != 4 || r.Channels != 2 {
		t.Errorf("Region = %v", r)
	}
	if c.String() != "[4,2]" {
		t.Errorf("String = %q", c.String())
	}
}

func TestInterfaceQueries(t *testing.T) {
	i := Interface{Owner: 3, FirstLayer: 2, Comps: []Component{{Slots: 5, Channels: 1}, {Slots: 3, Channels: 2}}}
	if i.LastLayer() != 3 {
		t.Errorf("LastLayer = %d, want 3", i.LastLayer())
	}
	if c, ok := i.Component(2); !ok || c.Slots != 5 {
		t.Errorf("Component(2) = %v %v", c, ok)
	}
	if c, ok := i.Component(3); !ok || c.Channels != 2 {
		t.Errorf("Component(3) = %v %v", c, ok)
	}
	if _, ok := i.Component(1); ok {
		t.Error("Component(1) should be absent")
	}
	if _, ok := i.Component(4); ok {
		t.Error("Component(4) should be absent")
	}
	if i.String() == "" {
		t.Error("String empty")
	}
}

func TestOwnLayerComponent(t *testing.T) {
	// Case 1 of §IV-B: half-duplex forces the child links into distinct
	// slots, so the component is [Σ r, 1].
	c := OwnLayerComponent([]int{2, 3, 1})
	if c.Slots != 6 || c.Channels != 1 {
		t.Errorf("OwnLayerComponent = %v, want [6,1]", c)
	}
	if !OwnLayerComponent(nil).Empty() || !OwnLayerComponent([]int{0, 0}).Empty() {
		t.Error("zero demand should give an empty component")
	}
}

func TestComposeSingleChild(t *testing.T) {
	comp, layout, err := Compose([]ChildComponent{{Child: 5, Comp: Component{Slots: 4, Channels: 1}}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Slots != 4 || comp.Channels != 1 {
		t.Errorf("composite = %v, want [4,1]", comp)
	}
	if off := layout[5]; off != (Offset{}) {
		t.Errorf("offset = %v, want origin", off)
	}
}

func TestComposeStacksInChannels(t *testing.T) {
	// Two [4,1] components with 16 channels available: packing minimises
	// slots first, so they stack into [4,2] rather than concatenating into
	// [8,1].
	children := []ChildComponent{
		{Child: 1, Comp: Component{Slots: 4, Channels: 1}},
		{Child: 2, Comp: Component{Slots: 4, Channels: 1}},
	}
	comp, layout, err := Compose(children, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Slots != 4 || comp.Channels != 2 {
		t.Errorf("composite = %v, want [4,2]", comp)
	}
	if layout[1] == layout[2] {
		t.Error("children share an offset")
	}
}

func TestComposeMinimisesChannelsSecondPass(t *testing.T) {
	// [3,1] and [2,1] with budget 16: pass 1 gives 3 slots; pass 2 should
	// realise both fit within 3 slots on ... 2 channels ([3,1] and [2,1]
	// can't share a channel within 3 slots? They can: 3+2=5 > 3, so they
	// need 2 channels). Composite [3,2].
	children := []ChildComponent{
		{Child: 1, Comp: Component{Slots: 3, Channels: 1}},
		{Child: 2, Comp: Component{Slots: 2, Channels: 1}},
	}
	comp, _, err := Compose(children, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Slots != 3 || comp.Channels != 2 {
		t.Errorf("composite = %v, want [3,2]", comp)
	}
}

func TestComposeChannelDimensionNotWasted(t *testing.T) {
	// One [2,2] and two [1,1]: slots minimum is 2 (pack [1,1]s beside the
	// big one); channels should be 3 at most, and never the full budget.
	children := []ChildComponent{
		{Child: 1, Comp: Component{Slots: 2, Channels: 2}},
		{Child: 2, Comp: Component{Slots: 1, Channels: 1}},
		{Child: 3, Comp: Component{Slots: 1, Channels: 1}},
	}
	comp, layout, err := Compose(children, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Slots != 2 {
		t.Errorf("slots = %d, want 2", comp.Slots)
	}
	if comp.Channels > 3 {
		t.Errorf("channels = %d, want <= 3", comp.Channels)
	}
	if len(layout) != 3 {
		t.Errorf("layout has %d entries, want 3", len(layout))
	}
}

func TestComposeSkipsEmptyChildren(t *testing.T) {
	children := []ChildComponent{
		{Child: 1, Comp: Component{}},
		{Child: 2, Comp: Component{Slots: 2, Channels: 1}},
	}
	comp, layout, err := Compose(children, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Slots != 2 || comp.Channels != 1 {
		t.Errorf("composite = %v, want [2,1]", comp)
	}
	if _, ok := layout[1]; ok {
		t.Error("empty child placed in layout")
	}
}

func TestComposeAllEmpty(t *testing.T) {
	comp, layout, err := Compose([]ChildComponent{{Child: 1, Comp: Component{}}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Empty() || len(layout) != 0 {
		t.Errorf("composite = %v layout=%v, want empty", comp, layout)
	}
}

func TestComposeErrors(t *testing.T) {
	if _, _, err := Compose(nil, 0); err == nil {
		t.Error("zero budget accepted")
	}
	over := []ChildComponent{{Child: 1, Comp: Component{Slots: 1, Channels: 20}}}
	if _, _, err := Compose(over, 16); !errors.Is(err, ErrChannelBudget) {
		t.Errorf("want ErrChannelBudget, got %v", err)
	}
	if _, _, err := ComposeSinglePass(over, 16); !errors.Is(err, ErrChannelBudget) {
		t.Errorf("single pass: want ErrChannelBudget, got %v", err)
	}
	if _, _, err := ComposeSinglePass(nil, 0); err == nil {
		t.Error("single pass: zero budget accepted")
	}
}

func TestComposeSinglePassUsesFullBudget(t *testing.T) {
	children := []ChildComponent{
		{Child: 1, Comp: Component{Slots: 3, Channels: 1}},
		{Child: 2, Comp: Component{Slots: 2, Channels: 1}},
	}
	comp, layout, err := ComposeSinglePass(children, 16)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Channels != 16 {
		t.Errorf("single-pass channels = %d, want the full budget 16", comp.Channels)
	}
	if comp.Slots != 3 {
		t.Errorf("single-pass slots = %d, want 3", comp.Slots)
	}
	if len(layout) != 2 {
		t.Errorf("layout entries = %d, want 2", len(layout))
	}
	empty, _, err := ComposeSinglePass([]ChildComponent{{Child: 1, Comp: Component{}}}, 8)
	if err != nil || !empty.Empty() {
		t.Errorf("all-empty single pass = %v, %v", empty, err)
	}
}

// composeOverlapFree checks that a layout is overlap-free and in bounds.
func composeOverlapFree(t *testing.T, children []ChildComponent, comp Component, layout Layout) {
	t.Helper()
	regions := make(map[topology.NodeID]bool)
	placed := make([]struct {
		id         topology.NodeID
		s, c, w, h int
	}, 0, len(layout))
	for _, cc := range children {
		if cc.Comp.Empty() {
			continue
		}
		off, ok := layout[cc.Child]
		if !ok {
			t.Fatalf("child %d missing from layout", cc.Child)
		}
		if off.Slot < 0 || off.Channel < 0 ||
			off.Slot+cc.Comp.Slots > comp.Slots || off.Channel+cc.Comp.Channels > comp.Channels {
			t.Fatalf("child %d at %v escapes composite %v", cc.Child, off, comp)
		}
		placed = append(placed, struct {
			id         topology.NodeID
			s, c, w, h int
		}{cc.Child, off.Slot, off.Channel, cc.Comp.Slots, cc.Comp.Channels})
		regions[cc.Child] = true
	}
	for i := range placed {
		for j := i + 1; j < len(placed); j++ {
			a, b := placed[i], placed[j]
			if a.s < b.s+b.w && b.s < a.s+a.w && a.c < b.c+b.h && b.c < a.c+a.h {
				t.Fatalf("children %d and %d overlap", a.id, b.id)
			}
		}
	}
}

func TestComposePropertyValidLayout(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 2 + rng.Intn(15)
		n := 1 + rng.Intn(8)
		children := make([]ChildComponent, n)
		for i := range children {
			children[i] = ChildComponent{
				Child: topology.NodeID(i + 1),
				Comp:  Component{Slots: 1 + rng.Intn(10), Channels: 1 + rng.Intn(budget)},
			}
		}
		comp, layout, err := Compose(children, budget)
		if err != nil {
			return false
		}
		if comp.Channels > budget {
			return false
		}
		// Re-validate geometry with a lightweight check (no *testing.T).
		for i, a := range children {
			oa := layout[a.Child]
			if oa.Slot+a.Comp.Slots > comp.Slots || oa.Channel+a.Comp.Channels > comp.Channels {
				return false
			}
			for _, b := range children[i+1:] {
				ob := layout[b.Child]
				if oa.Slot < ob.Slot+b.Comp.Slots && ob.Slot < oa.Slot+a.Comp.Slots &&
					oa.Channel < ob.Channel+b.Comp.Channels && ob.Channel < oa.Channel+a.Comp.Channels {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposePropertyNeverWorseThanSinglePass(t *testing.T) {
	// The two-pass composite must never use more channels than the
	// single-pass ablation at equal slot count.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 2 + rng.Intn(15)
		n := 1 + rng.Intn(6)
		children := make([]ChildComponent, n)
		for i := range children {
			children[i] = ChildComponent{
				Child: topology.NodeID(i + 1),
				Comp:  Component{Slots: 1 + rng.Intn(8), Channels: 1 + rng.Intn(budget)},
			}
		}
		two, _, err := Compose(children, budget)
		if err != nil {
			return false
		}
		one, _, err := ComposeSinglePass(children, budget)
		if err != nil {
			return false
		}
		return two.Slots == one.Slots && two.Channels <= one.Channels
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposeDeterministic(t *testing.T) {
	children := []ChildComponent{
		{Child: 1, Comp: Component{Slots: 3, Channels: 2}},
		{Child: 2, Comp: Component{Slots: 5, Channels: 1}},
		{Child: 3, Comp: Component{Slots: 2, Channels: 2}},
	}
	c1, l1, err := Compose(children, 8)
	if err != nil {
		t.Fatal(err)
	}
	c2, l2, err := Compose(children, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("composite differs: %v vs %v", c1, c2)
	}
	for id, off := range l1 {
		if l2[id] != off {
			t.Fatalf("layout differs at %d: %v vs %v", id, off, l2[id])
		}
	}
	composeOverlapFree(t, children, c1, l1)
}
