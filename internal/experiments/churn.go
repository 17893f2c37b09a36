package experiments

import (
	"errors"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/parallel"
	"github.com/harpnet/harp/internal/rpl"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// ChurnConfig parameterises the topology-dynamics study: RPL-lite forms a
// tree over a random geometric link-quality graph; links are then degraded
// one at a time (interference events), each reconvergence produces parent
// switches, and HARP absorbs every switch through incremental partition
// migration. This extends the paper's evaluation to the *topology* half of
// its §V dynamics ("topology changes and traffic changes"); the paper
// validates traffic changes only.
type ChurnConfig struct {
	// Nodes in the network.
	Nodes int
	// Radius of the geometric graph (unit square).
	Radius float64
	// Events is the number of link-degradation events.
	Events int
	// DegradeFactor multiplies a victim link's ETX per event.
	DegradeFactor float64
	// Repetitions is the number of independent random networks the study
	// averages over; each repetition owns its own rng stream and runs on
	// its own worker. Zero means 1 (the single-network study).
	Repetitions int
	Seed        int64
}

// DefaultChurn returns a 50-node configuration.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{Nodes: 50, Radius: 0.3, Events: 20, DegradeFactor: 6, Repetitions: 1, Seed: 8}
}

// ChurnResult summarises the study.
type ChurnResult struct {
	// Switches is the number of parent switches RPL produced.
	Switches int
	// Migrated counts switches HARP absorbed incrementally.
	Migrated int
	// Rebuilt counts switches that needed a full plan rebuild.
	Rebuilt int
	// MigrationMessages are the per-switch HARP message costs.
	MigrationMessages []float64
	// StaticMessages is the cost of one full (re)build of the static
	// phase — the alternative to incremental migration. With multiple
	// repetitions it reports the first repetition's build cost.
	StaticMessages int
	Table          *stats.Table
}

// Churn runs the topology-dynamics study: cfg.Repetitions independent
// random networks fan out across the worker pool (each repetition owning
// rng stream = its index, so repetition 0 reproduces the single-network
// study exactly) and their counters are folded in repetition order.
func Churn(cfg ChurnConfig) (ChurnResult, error) {
	reps := cfg.Repetitions
	if reps <= 0 {
		reps = 1
	}
	runs, err := parallel.Map(reps, func(rep int) (ChurnResult, error) {
		return churnRun(cfg, int64(rep))
	})
	if err != nil {
		return ChurnResult{}, err
	}
	res := ChurnResult{StaticMessages: runs[0].StaticMessages}
	for _, run := range runs {
		res.Switches += run.Switches
		res.Migrated += run.Migrated
		res.Rebuilt += run.Rebuilt
		res.MigrationMessages = append(res.MigrationMessages, run.MigrationMessages...)
	}

	sum := stats.Summarize(res.MigrationMessages)
	table := stats.NewTable("Topology churn — HARP incremental migration vs full rebuild",
		"quantity", "value")
	table.AddRow("parent switches", res.Switches)
	table.AddRow("migrated incrementally", res.Migrated)
	table.AddRow("full rebuilds", res.Rebuilt)
	table.AddRow("mean migration messages", sum.Mean)
	table.AddRow("p95 migration messages", sum.P95)
	table.AddRow("static (re)build messages", res.StaticMessages)
	res.Table = table
	return res, nil
}

// churnRun is one repetition of the study on its own random network.
func churnRun(cfg ChurnConfig, stream int64) (ChurnResult, error) {
	rng := rngFor(cfg.Seed, stream)
	graph, err := rpl.RandomGeometric(cfg.Nodes, cfg.Radius, rng)
	if err != nil {
		return ChurnResult{}, err
	}
	tree, err := graph.FormTree()
	if err != nil {
		return ChurnResult{}, err
	}
	frame := PaperSlotframe(16)
	frame.Slots, frame.DataSlots = 800, 800

	demand := func(over *topology.Tree) (*traffic.Demand, error) {
		tasks, err := traffic.UniformEcho(over, 1)
		if err != nil {
			return nil, err
		}
		return traffic.Compute(over, tasks)
	}
	initial, err := demand(tree)
	if err != nil {
		return ChurnResult{}, err
	}
	plan, err := core.NewPlan(tree, frame, initial, core.Options{RootGap: 2})
	if err != nil {
		return ChurnResult{}, err
	}
	res := ChurnResult{StaticMessages: plan.Static.Total()}

	for ev := 0; ev < cfg.Events; ev++ {
		// Degrade the tree link of a random non-gateway node.
		nodes := tree.Nodes()
		victim := nodes[1+rng.Intn(len(nodes)-1)]
		parent, err := tree.Parent(victim)
		if err != nil {
			return ChurnResult{}, err
		}
		if err := graph.Degrade(victim, parent, cfg.DegradeFactor); err != nil {
			continue // the graph link may already be gone
		}
		// RPL reconverges on a clone; HARP migrates switch by switch on the
		// live tree.
		shadow := tree.Clone()
		switches, err := graph.Reconverge(shadow)
		if err != nil {
			return ChurnResult{}, err
		}
		for _, sw := range switches {
			res.Switches++
			// New demand after this switch.
			clone := tree.Clone()
			if err := clone.Reparent(sw.Node, sw.To); err != nil {
				continue // superseded by an earlier migration this event
			}
			d, err := demand(clone)
			if err != nil {
				return ChurnResult{}, err
			}
			rep, err := plan.Reparent(sw.Node, sw.To, d)
			if err != nil {
				if !errors.Is(err, core.ErrReparentFailed) {
					return ChurnResult{}, err
				}
				// Incremental migration infeasible (fragmentation): rebuild,
				// as a deployment would re-bootstrap the subtree.
				res.Rebuilt++
				plan, err = core.NewPlan(tree, frame, d, core.Options{RootGap: 2})
				if err != nil {
					return ChurnResult{}, err
				}
				continue
			}
			res.Migrated++
			res.MigrationMessages = append(res.MigrationMessages, float64(rep.TotalMessages()))
			if err := plan.Validate(); err != nil {
				return ChurnResult{}, err
			}
		}
	}
	return res, nil
}
