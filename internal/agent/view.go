package agent

import (
	"sort"

	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/transport"
)

// shared is the part of a deployment every agent reaches through one
// pointer: the per-fleet constants, the clock hooks, and the maintained
// fleet views — the published cell assignments and the fleet-wide tallies.
// The views are written at the agents' own write sites, so the Fleet
// accessors over them cost what changed, not what the fleet contains.
type shared struct {
	frame   schedule.Slotframe
	rootGap int // gateway only: idle slots between layer partitions
	net     transport.Network

	// tracer and metrics are the deployment's observability sinks
	// (WithTracer, WithMetrics). Both are nil-safe: the zero value means
	// disabled.
	tracer  *obs.Tracer
	metrics *obs.Registry

	// hooks is the deployment's virtual-clock wiring (zero until bound).
	hooks clockHooks

	// pending counts the stamped in-flight escalations (every agent's
	// stamped layer records); rejections counts the adjustments some
	// agent could not satisfy.
	pending    int64
	rejections int64

	view scheduleView
}

// clockHooks is what the failure detector and the co-simulation bind into
// a deployment.
type clockHooks struct {
	// heard is called for every delivered message — any traffic from a
	// peer is liveness evidence, keepalives included. nil when detection
	// is off.
	heard func(from topology.NodeID)
	// vnow reads the shared virtual clock so escalations can be stamped
	// for the adjustment watchdog and the latency telemetry.
	vnow func() float64
}

// linkCells is one published link: the child end and the cells its parent
// assigned it. cells aliases the owning agent's childState.cells slice,
// which is immutable once stored.
type linkCells struct {
	child topology.NodeID
	cells []schedule.Cell
}

// scheduleView is the fleet's global schedule, maintained instead of
// recomputed: each agent that hosts cells keeps its current own-layer
// assignment, per direction, published here (Node.publish). Only hosting
// agents have an entry, so the view's size follows the links that own
// cells.
type scheduleView struct {
	hosts map[topology.NodeID][2][]linkCells
}

// set replaces what node id publishes in direction d; an agent left with
// nothing in either direction drops out of the view.
func (v *scheduleView) set(id topology.NodeID, d topology.Direction, links []linkCells) {
	h := v.hosts[id]
	h[d] = links
	if len(h[0]) == 0 && len(h[1]) == 0 {
		delete(v.hosts, id)
		return
	}
	v.hosts[id] = h
}

// appendTo assigns every published link into s, hosting agents in NodeID
// order: a link transiently held by two agents (mid-rehome, before the old
// parent processed the leave) gets both cell runs, lower agent first,
// exactly as a walk over all agents in tree order would collect them.
func (v *scheduleView) appendTo(s *schedule.Schedule) error {
	ids := make([]topology.NodeID, 0, len(v.hosts))
	for id := range v.hosts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, d := range topology.Directions() {
			for _, l := range v.hosts[id][d] {
				if err := s.Assign(topology.Link{Child: l.child, Direction: d}, l.cells...); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
