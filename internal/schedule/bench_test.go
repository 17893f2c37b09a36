package schedule_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// harpSchedule plans tree at one echo per node over frame and returns the
// materialised HARP schedule.
func harpSchedule(tb testing.TB, tree *topology.Tree, frame schedule.Slotframe) *schedule.Schedule {
	tb.Helper()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		tb.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := core.NewPlan(tree, frame, demand, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := plan.BuildSchedule()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// heapTree returns an n-node tree in which node i hangs under (i-1)/8, so
// the first nodes have the same parents whatever n is.
func heapTree(tb testing.TB, n int) *topology.Tree {
	tb.Helper()
	tree := topology.New()
	for i := 1; i < n; i++ {
		if err := tree.AddNode(topology.NodeID(i), topology.NodeID((i-1)/8)); err != nil {
			tb.Fatal(err)
		}
	}
	return tree
}

// twentyLinks returns a clean schedule of the uplinks of nodes 1..20, one
// cell each in its own slot: the size of schedule a committed adjustment
// validates, whatever the size of the fleet.
func twentyLinks(tb testing.TB) *schedule.Schedule {
	tb.Helper()
	s, err := schedule.NewSchedule(schedule.Testbed())
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		l := topology.Link{Child: topology.NodeID(i), Direction: topology.Uplink}
		if err := s.Assign(l, schedule.Cell{Slot: 3 * i, Channel: i % 16}); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkScheduleValidate measures the effectiveness check on the three
// shapes it runs on: the testbed's HARP schedule, a plan_sweep-style
// 81-node plan over a 1200-slot frame, and a small schedule against a
// 50 000-node tree, where any per-node scratch would dominate.
func BenchmarkScheduleValidate(b *testing.B) {
	sweep, err := topology.Generate(topology.GenSpec{Nodes: 81, Layers: 10}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	sweepFrame := schedule.Slotframe{Slots: 1200, Channels: 16, DataSlots: 1200, SlotDuration: 10 * time.Millisecond}
	big := heapTree(b, 50000)
	cases := []struct {
		name  string
		tree  *topology.Tree
		sched *schedule.Schedule
	}{
		{"testbed50", topology.Testbed50(), harpSchedule(b, topology.Testbed50(), schedule.Testbed())},
		{"sweep81x1200", sweep, harpSchedule(b, sweep, sweepFrame)},
		{"links20_tree50k", big, twentyLinks(b)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.sched.Validate(c.tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
