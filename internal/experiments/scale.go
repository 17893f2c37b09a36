package experiments

import (
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// ScaleConfig parameterises the scale study: fleets far beyond the paper's
// 50-node testbed (10k–100k class networks) run the full distributed
// protocol — static allocation, then rounds of concurrent subtree
// adjustments — on the sharded virtual-time kernel, measuring how the
// control plane's convergence and message cost grow with fleet size (host
// time and memory footprint at these sizes are benchmark/'s ctrl_scale
// and keepalive_fleet workloads).
type ScaleConfig struct {
	// Sizes are the fleet sizes (total nodes including the gateway).
	Sizes []int
	// Layers is the exact tree depth each fleet reaches.
	Layers int
	// MaxChildren caps the fan-out per node.
	MaxChildren int
	// ActiveTasks is the number of end-to-end echo tasks; everything else
	// is a zero-demand subtree, as a mostly-idle industrial deployment is.
	ActiveTasks int
	// AdjustRounds is the number of adjustment rounds; each round raises
	// the demand of AdjustPerRound task links concurrently (concurrent
	// escalations through shared ancestors).
	AdjustRounds   int
	AdjustPerRound int
	Seed           int64
}

// DefaultScale returns the 1k/10k/50k configuration.
func DefaultScale() ScaleConfig {
	return ScaleConfig{
		Sizes:          []int{1_000, 10_000, 50_000},
		Layers:         8,
		MaxChildren:    8,
		ActiveTasks:    32,
		AdjustRounds:   3,
		AdjustPerRound: 4,
		Seed:           17,
	}
}

// ScalePoint is the study's measurements at one fleet size.
type ScalePoint struct {
	Nodes int
	// StaticSlots is the virtual time (in slots) the static allocation
	// phase took to quiesce.
	StaticSlots float64
	// AdjustSlots is the mean disruption window (trigger to commit, in
	// slots) across the adjustment rounds.
	AdjustSlots float64
	// Commits is the number of committed adjustment rounds.
	Commits int
	// Events is the total number of virtual-time events dispatched.
	Events uint64
	// Shards is the kernel shard count the run used.
	Shards int
}

// ScaleResult summarises the study.
type ScaleResult struct {
	Points []ScalePoint
	Table  *stats.Table
}

// Scale runs the study. Every quantity is a virtual-time result, so the
// points are a pure function of the seeds at any worker or shard count.
func Scale(cfg ScaleConfig) (ScaleResult, error) {
	var res ScaleResult
	for _, size := range cfg.Sizes {
		p, err := scaleRun(cfg, size)
		if err != nil {
			return ScaleResult{}, fmt.Errorf("scale %d: %w", size, err)
		}
		res.Points = append(res.Points, p)
	}
	table := stats.NewTable("Control-plane scale — sharded kernel, sparse demand",
		"nodes", "shards", "static slots", "adjust slots", "commits", "events")
	for _, p := range res.Points {
		table.AddRow(p.Nodes, p.Shards, p.StaticSlots, p.AdjustSlots, p.Commits, p.Events)
	}
	res.Table = table
	return res, nil
}

// scaleRun is the study at one fleet size.
func scaleRun(cfg ScaleConfig, size int) (ScalePoint, error) {
	rng := vclock.NewStream(vclock.StreamScale, cfg.Seed*1_000_003+int64(size))
	tree, err := topology.GenerateScale(topology.GenSpec{
		Nodes: size, Layers: cfg.Layers, MaxChildren: cfg.MaxChildren,
	}, rng)
	if err != nil {
		return ScalePoint{}, err
	}
	// A larger slotframe than the 199-slot testbed frame: at this scale the
	// gateway's layer partitions need the room, and the paper's 16 channels
	// stay.
	frame := PaperSlotframe(16)
	frame.Slots, frame.DataSlots = 997, 960

	// Sparse demand: ActiveTasks echo tasks at depth, picked uniformly from
	// the non-gateway nodes; every other subtree carries zero demand.
	nodes := tree.Nodes()
	tasks := traffic.NewSet()
	sources := make([]topology.NodeID, 0, cfg.ActiveTasks)
	seen := make(map[topology.NodeID]bool)
	for id := traffic.TaskID(0); len(sources) < cfg.ActiveTasks && len(seen) < len(nodes)-1; id++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		if seen[src] {
			continue
		}
		seen[src] = true
		sources = append(sources, src)
		if err := tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}); err != nil {
			return ScalePoint{}, err
		}
	}

	shards := cosim.AutoShards(tree)
	cs, err := cosim.New(cosim.Config{
		Tree:    tree,
		Frame:   frame,
		Tasks:   tasks,
		PDR:     1,
		Seed:    cfg.Seed,
		RootGap: 2,
		Shards:  shards,
	})
	if err != nil {
		return ScalePoint{}, err
	}
	point := ScalePoint{Nodes: size, Shards: shards, StaticSlots: cs.Clock.Now()}

	// Adjustment rounds: each round raises several task links' demand at
	// once, spread across the active set — concurrent escalations that meet
	// in shared ancestors and, at the gateway, in the same layer layouts.
	var adjustErr error
	slot := frame.Slots
	for round := 0; round < cfg.AdjustRounds; round++ {
		r := round
		cs.At(slot, func(c *cosim.CoSim) {
			err := c.Adjust(func(f *agent.Fleet) error {
				for j := 0; j < cfg.AdjustPerRound; j++ {
					src := sources[(r*cfg.AdjustPerRound+j)%len(sources)]
					l := topology.Link{Child: src, Direction: topology.Uplink}
					if err := f.RequestLinkDemand(l, 2+r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil && adjustErr == nil {
				adjustErr = fmt.Errorf("round %d: %w", r, err)
			}
		})
		slot += 16 * frame.Slots
	}
	if err := cs.Run(slot + 16*frame.Slots); err != nil {
		return ScalePoint{}, err
	}
	if adjustErr != nil {
		return ScalePoint{}, adjustErr
	}
	if !cs.Quiesced() {
		return ScalePoint{}, fmt.Errorf("fleet did not quiesce after %d rounds", cfg.AdjustRounds)
	}

	point.Commits = len(cs.Commits)
	total := 0.0
	for _, cm := range cs.Commits {
		total += float64(cm.CommitSlot - cm.TriggerSlot)
	}
	if len(cs.Commits) > 0 {
		point.AdjustSlots = total / float64(len(cs.Commits))
	}
	point.Events = cs.Clock.Dispatched()
	return point, nil
}
