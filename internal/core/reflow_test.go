package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// reflowScenario is one tight-frame recipe under which a gateway reflow
// preserves a root gap, shifts the intervals behind it and runs off the end
// of the data sub-frame although the summed widths still fit: a 30-node,
// 4-layer random tree at one echo task per node on a 4-channel frame with
// RootGap 2, raised link by link by +1, then +3, then +6 cells.
type reflowScenario struct {
	seed      int64
	dataSlots int
}

func (sc reflowScenario) build(t *testing.T) (*topology.Tree, schedule.Slotframe, *traffic.Demand) {
	t.Helper()
	tree, err := topology.Generate(topology.GenSpec{Nodes: 30, Layers: 4}, rand.New(rand.NewSource(sc.seed)))
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	frame := schedule.Slotframe{Slots: sc.dataSlots + 10, Channels: 4, DataSlots: sc.dataSlots, SlotDuration: 10 * time.Millisecond}
	return tree, frame, demand
}

// TestRootReflowRejectsCleanly holds both callers of ReflowRoot/RootHost to
// one contract: a raise the gateway cannot lay out is a clean rejection
// that leaves the committed state valid. Before the helpers were shared,
// Plan propagated placements while still laying them out and returned
// "root reflow escapes data sub-frame" with overlapping gateway partitions
// half-installed.
func TestRootReflowRejectsCleanly(t *testing.T) {
	scenarios := []reflowScenario{{44, 120}, {222, 120}, {289, 140}}
	for _, sc := range scenarios {
		t.Run(fmt.Sprintf("plan/seed%d_%dx4", sc.seed, sc.dataSlots), func(t *testing.T) {
			tree, frame, demand := sc.build(t)
			plan, err := core.NewPlan(tree, frame, demand, core.Options{RootGap: 2})
			if err != nil {
				t.Fatal(err)
			}
			rejected := 0
			for _, delta := range []int{1, 3, 6} {
				for _, l := range demand.Links() {
					old := plan.Demand(l)
					adj, err := plan.SetLinkDemand(l, old+delta, float64(old+delta))
					if err != nil {
						t.Fatalf("%v +%d: %v (Validate: %v)", l, delta, err, plan.Validate())
					}
					if adj.Case == core.CaseRejected {
						rejected++
						if got := plan.Demand(l); got != old {
							t.Fatalf("%v +%d rejected but demand moved %d -> %d", l, delta, old, got)
						}
					}
					if err := plan.Validate(); err != nil {
						t.Fatalf("%v +%d (%s): %v", l, delta, adj.Case, err)
					}
				}
			}
			if rejected == 0 {
				t.Error("recipe no longer reaches a rejection: it pins nothing")
			}
		})
	}

	sc := scenarios[0]
	t.Run(fmt.Sprintf("agent/seed%d_%dx4", sc.seed, sc.dataSlots), func(t *testing.T) {
		tree, frame, demand := sc.build(t)
		bus, err := transport.NewBus(frame.Slots, 1)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := agent.Deploy(tree, frame, demand, bus, agent.WithRootGap(2))
		if err != nil {
			t.Fatal(err)
		}
		fleet.Start()
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
		granted := make(map[topology.Link]int)
		for _, delta := range []int{1, 3, 6} {
			for _, l := range demand.Links() {
				target := demand.Cells(l) + granted[l] + delta
				before := fleet.Rejections()
				if err := fleet.RequestLinkDemand(l, target); err != nil {
					t.Fatal(err)
				}
				if _, err := bus.Run(); err != nil {
					t.Fatal(err)
				}
				if fleet.Rejections() == before {
					granted[l] += delta
				}
				if err := fleet.Validate(); err != nil {
					t.Fatalf("%v +%d: %v", l, delta, err)
				}
				if err := invariant.CheckFleet(fleet, nil); err != nil {
					t.Fatalf("%v +%d: %v", l, delta, err)
				}
			}
		}
		if fleet.Rejections() == 0 {
			t.Error("recipe no longer reaches a rejection: it pins nothing")
		}
	})
}
