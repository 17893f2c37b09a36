package experiments

import (
	"fmt"
	"math/rand"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/packing"
	"github.com/harpnet/harp/internal/parallel"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// AblationConfig parameterises the design-choice ablations of DESIGN.md.
type AblationConfig struct {
	Instances int
	Seed      int64
}

// DefaultAblation returns a configuration sized for quick runs.
func DefaultAblation() AblationConfig { return AblationConfig{Instances: 200, Seed: 7} }

// randomComponents draws a random component set shaped like the composition
// inputs HARP sees (per-subtree blocks of a few slots and channels), one
// per child slot.
func randomComponents(rng *rand.Rand, budget int) []core.Component {
	n := 2 + rng.Intn(7)
	out := make([]core.Component, n)
	for i := range out {
		out[i] = core.Component{Slots: 1 + rng.Intn(12), Channels: 1 + rng.Intn(budget/2)}
	}
	return out
}

// AblationTwoPass quantifies the channel waste avoided by the second
// (channel-minimising) strip-packing pass of Alg. 1.
func AblationTwoPass(cfg AblationConfig) (*stats.Table, error) {
	const budget = 16
	trials, err := parallel.Map(cfg.Instances, func(i int) ([3]float64, error) {
		rng := rngFor(cfg.Seed, int64(i))
		comps := randomComponents(rng, budget)
		two, _, err := core.Compose(comps, budget)
		if err != nil {
			return [3]float64{}, err
		}
		one, _, err := core.ComposeSinglePass(comps, budget)
		if err != nil {
			return [3]float64{}, err
		}
		if two.Slots != one.Slots {
			return [3]float64{}, fmt.Errorf("experiments: slot counts diverge (%d vs %d)", two.Slots, one.Slots)
		}
		return [3]float64{float64(two.Channels), float64(one.Channels), float64(two.Slots)}, nil
	})
	if err != nil {
		return nil, err
	}
	var twoCh, oneCh, slots float64
	for _, trial := range trials {
		twoCh += trial[0]
		oneCh += trial[1]
		slots += trial[2]
	}
	n := float64(cfg.Instances)
	t := stats.NewTable("Ablation — two-pass composition (Alg. 1) vs single pass",
		"variant", "mean channels", "mean slots")
	t.AddRow("two-pass", twoCh/n, slots/n)
	t.AddRow("single-pass", oneCh/n, slots/n)
	return t, nil
}

// AblationLayeredInterface compares the paper's layered resource interface
// (Fig. 3(b)) against abstracting each subtree as a single rectangle
// (Fig. 3(a)): the slotframe slots the gateway needs for the same demand.
// The single-rectangle variant must serialise a subtree's layers inside its
// block (routing-compliant order), so its block is Σ slots wide and
// max-channels tall.
func AblationLayeredInterface(cfg AblationConfig) (*stats.Table, error) {
	frame := PaperSlotframe(16)
	frame.Slots, frame.DataSlots = 4000, 4000 // wide open: measure usage, not feasibility
	runs := cfg.Instances / 10
	if runs == 0 {
		runs = 1
	}
	trials, err := parallel.Map(runs, func(i int) ([2]float64, error) {
		rng := rngFor(cfg.Seed, 1000+int64(i))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 50, Layers: 5, MaxChildren: 3}, rng)
		if err != nil {
			return [2]float64{}, err
		}
		tasks, err := traffic.UniformEcho(tree, 1)
		if err != nil {
			return [2]float64{}, err
		}
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			return [2]float64{}, err
		}
		plan, err := core.NewPlan(tree, frame, demand, core.Options{})
		if err != nil {
			return [2]float64{}, err
		}
		layered := float64(usedSlots(plan))

		// Single-rectangle variant: per direct subtree of the gateway, sum
		// the per-layer components into one rectangle (slots = Σ layer
		// slots, channels = max layer channels), then lay the rectangles
		// out one after another plus the gateway's own layer-1 strip.
		var single float64
		for _, dir := range topology.Directions() {
			gwIface, _ := plan.InterfaceOf(topology.GatewayID, dir)
			own, _ := gwIface.Component(1)
			single += float64(own.Slots)
			for _, c := range tree.Children(topology.GatewayID) {
				if tree.IsLeaf(c) {
					continue
				}
				iface, ok := plan.InterfaceOf(c, dir)
				if !ok {
					continue
				}
				blockSlots := 0
				for _, comp := range iface.Comps {
					blockSlots += comp.Slots
				}
				single += float64(blockSlots)
			}
		}
		return [2]float64{layered, single}, nil
	})
	if err != nil {
		return nil, err
	}
	var layered, single float64
	for _, trial := range trials {
		layered += trial[0]
		single += trial[1]
	}
	n := float64(runs)
	t := stats.NewTable("Ablation — layered interfaces (Fig. 3(b)) vs single-rectangle subtree blocks (Fig. 3(a))",
		"variant", "mean slotframe slots used")
	t.AddRow("layered (HARP)", layered/n)
	t.AddRow("single-rectangle", single/n)
	return t, nil
}

func usedSlots(plan *core.Plan) int {
	maxSlot := 0
	for _, info := range plan.Partitions() {
		if info.Node != topology.GatewayID {
			continue
		}
		if e := info.Region.Slot + info.Region.Slots; e > maxSlot {
			maxSlot = e
		}
	}
	return maxSlot
}

// AblationAdjustment compares Alg. 2's neighbour-first eviction against a
// full repack on every adjustment, counting moved partitions (each moved
// partition is a PUT /part message).
func AblationAdjustment(cfg AblationConfig) (*stats.Table, error) {
	type adjTrial struct {
		alg2Moved, repackMoved float64
		feasible               bool
	}
	trials, err := parallel.Map(cfg.Instances, func(i int) (adjTrial, error) {
		rng := rngFor(cfg.Seed, 2000+int64(i))
		// A one-channel strip of sibling partitions with some slack, like a
		// parent partition at one layer.
		n := 3 + rng.Intn(5)
		layout := make(core.Layout, n)
		comps := make([]core.Component, n)
		slot := 0
		for j := 0; j < n; j++ {
			w := 1 + rng.Intn(4)
			comps[j] = core.Component{Slots: w, Channels: 1}
			layout[j] = core.Offset{Slot: slot, Channel: 0, Placed: true}
			slot += w
		}
		width := slot + 2 + rng.Intn(4) // slack at the end
		target := rng.Intn(n)
		grown := core.Component{Slots: comps[target].Slots + 1 + rng.Intn(2), Channels: 1}

		_, moved, ok := core.AdjustLayout(width, 1, layout, comps, target, grown)
		if !ok {
			return adjTrial{}, nil
		}
		// Full repack: everything moves (conservatively counting every
		// partition whose placement could change as a message).
		return adjTrial{alg2Moved: float64(len(moved)), repackMoved: float64(n), feasible: true}, nil
	})
	if err != nil {
		return nil, err
	}
	var alg2Moved, repackMoved float64
	samples := 0
	for _, trial := range trials {
		if !trial.feasible {
			continue
		}
		alg2Moved += trial.alg2Moved
		repackMoved += trial.repackMoved
		samples++
	}
	if samples == 0 {
		return nil, fmt.Errorf("experiments: no feasible ablation instances")
	}
	t := stats.NewTable("Ablation — Alg. 2 neighbour-first eviction vs full repack (moved partitions per adjustment)",
		"variant", "mean moved partitions")
	t.AddRow("alg2 (neighbour-first)", alg2Moved/float64(samples))
	t.AddRow("full repack", repackMoved/float64(samples))
	return t, nil
}

// AblationPackers compares the skyline strip packer against the bottom-left
// baseline: achieved heights on random instances.
func AblationPackers(cfg AblationConfig) (*stats.Table, error) {
	trials, err := parallel.Map(cfg.Instances, func(i int) ([2]float64, error) {
		rng := rngFor(cfg.Seed, 3000+int64(i))
		width := 8 + rng.Intn(9)
		n := 5 + rng.Intn(20)
		rects := make([]packing.Rect, n)
		for j := range rects {
			rects[j] = packing.Rect{ID: j, W: 1 + rng.Intn(width), H: 1 + rng.Intn(8)}
		}
		sky, err := packing.PackStrip(rects, width)
		if err != nil {
			return [2]float64{}, err
		}
		bl, err := packing.PackStripBottomLeft(rects, width)
		if err != nil {
			return [2]float64{}, err
		}
		return [2]float64{float64(sky.H), float64(bl.H)}, nil
	})
	if err != nil {
		return nil, err
	}
	var skyH, blH float64
	for _, trial := range trials {
		skyH += trial[0]
		blH += trial[1]
	}
	n := float64(cfg.Instances)
	t := stats.NewTable("Ablation — skyline best-fit vs bottom-left strip packing (mean height)",
		"packer", "mean height")
	t.AddRow("skyline best-fit", skyH/n)
	t.AddRow("bottom-left", blH/n)
	return t, nil
}
