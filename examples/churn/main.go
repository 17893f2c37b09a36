// Churn demonstrates HARP absorbing *topology* dynamics (§V of the paper):
// RPL-lite forms the routing tree over a link-quality graph; interference
// degrades links, RPL switches parents, and HARP migrates the affected
// subtrees' partitions incrementally — a handful of messages instead of
// re-running the whole static allocation.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/rpl"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// A 40-node network in a unit square; nodes within radio range share a
	// link whose ETX grows with distance.
	graph, err := rpl.RandomGeometric(40, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := graph.FormTree()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RPL formed a %d-node tree with %d layers\n", tree.Len(), tree.MaxLayer())

	frame := schedule.Slotframe{Slots: 800, Channels: 16, DataSlots: 800, SlotDuration: 10_000_000}
	demand := func(over *topology.Tree) *traffic.Demand {
		tasks, err := traffic.UniformEcho(over, 1)
		if err != nil {
			log.Fatal(err)
		}
		d, err := traffic.Compute(over, tasks)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}
	plan, err := core.NewPlan(tree, frame, demand(tree), core.Options{RootGap: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static allocation done (%d protocol messages); schedule is collision-free\n\n",
		plan.Static.Total())

	for event := 1; event <= 6; event++ {
		// Interference hits a random node's tree link.
		nodes := tree.Nodes()
		victim := nodes[1+rng.Intn(len(nodes)-1)]
		parent, _ := tree.Parent(victim)
		if err := graph.Degrade(victim, parent, 8); err != nil {
			continue
		}
		shadow := tree.Clone()
		switches, err := graph.Reconverge(shadow)
		if err != nil {
			log.Fatal(err)
		}
		if len(switches) == 0 {
			fmt.Printf("event %d: link %d-%d degraded; RPL keeps the tree\n", event, victim, parent)
			continue
		}
		for _, sw := range switches {
			clone := tree.Clone()
			if clone.Reparent(sw.Node, sw.To) != nil {
				continue
			}
			// Demand over the post-switch routes.
			newDemand := demand(clone)

			rep, err := plan.Reparent(sw.Node, sw.To, newDemand)
			if errors.Is(err, core.ErrReparentFailed) {
				fmt.Printf("event %d: node %d -> %d could not migrate incrementally; rebuilding\n",
					event, sw.Node, sw.To)
				plan, err = core.NewPlan(tree, frame, newDemand, core.Options{RootGap: 2})
				if err != nil {
					log.Fatal(err)
				}
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			if err := plan.Validate(); err != nil {
				log.Fatalf("schedule invalid after migration: %v", err)
			}
			fmt.Printf("event %d: node %d switched parent %d -> %d; HARP migrated the subtree with %d messages (still collision-free)\n",
				event, sw.Node, sw.From, sw.To, rep.TotalMessages())
		}
	}
	fmt.Printf("\nfor comparison, one full static re-allocation costs %d messages\n", plan.Static.Total())
}
