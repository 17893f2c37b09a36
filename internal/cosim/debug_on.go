//go:build harpdebug

package cosim

import (
	"fmt"
	"reflect"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// debugChecks enables the full invariant sweep (invariant.CheckFleet:
// partition containment, sibling disjointness, collision freedom,
// half-duplex safety) at the static-phase handoff and at every schedule
// commit point, panicking on the first violation. Quiescent points are the
// only instants these must hold, and commits are exactly those instants.
const debugChecks = true

// debugCheckView panics unless got — the schedule Fleet.BuildSchedule just
// assembled from the fleet's maintained view — equals a from-scratch walk
// over every agent's own assignment in NodeID order, link for link and
// cell for cell. It runs on exactly the schedule the MAC is about to get,
// so the race+harpdebug soaks check the view through crash storms and loss.
func debugCheckView(f *agent.Fleet, got *schedule.Schedule) {
	want, err := schedule.NewSchedule(f.Frame)
	if err != nil {
		panic(fmt.Sprintf("cosim: reference schedule: %v", err))
	}
	for _, id := range f.Tree.Nodes() {
		n, err := f.Node(id)
		if err != nil {
			panic(fmt.Sprintf("cosim: reference schedule: %v", err))
		}
		for _, d := range topology.Directions() {
			for child, cells := range n.Assignment(d) {
				if len(cells) == 0 {
					continue
				}
				if err := want.Assign(topology.Link{Child: child, Direction: d}, cells...); err != nil {
					panic(fmt.Sprintf("cosim: reference schedule: %v", err))
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		panic(fmt.Sprintf("cosim: fleet view differs from the agents' own assignments\n view   %v\n agents %v",
			got.Transmissions(), want.Transmissions()))
	}
}
