// Package apas implements the centralized baseline of the adjustment
// overhead study (§VII-B): APaS (Wang et al., RTAS 2021), the authors'
// earlier Adaptive Partition-based Scheduler for 6TiSCH networks. APaS
// computes partition-based schedules like HARP, but the computation lives
// entirely at the gateway: every traffic change must be reported to the
// root over multi-hop routes, and the reconfigured schedule must be shipped
// back the same way.
//
// For a requesting node at layer l the paper derives the adjustment cost as
// 3l-1 packets: l hops for the request to reach the root, plus schedule
// update messages to the node (l hops) and its parent (l-1 hops). The
// central computation itself reuses the same partitioning engine as HARP
// (internal/core), so the two baselines differ only in *where* decisions
// are made and what the signalling costs — exactly the comparison Fig. 12
// draws.
package apas

import (
	"fmt"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// Manager is the centralized scheduler state held at the gateway.
type Manager struct {
	tree  *topology.Tree
	frame schedule.Slotframe

	demand  map[topology.Link]int
	topRate map[topology.Link]float64
	plan    *core.Plan
}

// New builds the initial centralized schedule.
func New(tree *topology.Tree, frame schedule.Slotframe, demand *traffic.Demand) (*Manager, error) {
	m := &Manager{
		tree:    tree,
		frame:   frame,
		demand:  make(map[topology.Link]int),
		topRate: make(map[topology.Link]float64),
	}
	for _, l := range demand.Links() {
		m.demand[l] = demand.Cells(l)
		flows := demand.Flows(l)
		if len(flows) > 0 {
			m.topRate[l] = flows[0].Task.Rate
		}
	}
	if err := m.recompute(); err != nil {
		return nil, err
	}
	return m, nil
}

// recompute rebuilds the full schedule centrally from current demand.
func (m *Manager) recompute() error {
	plan, err := core.NewPlanFromLinkDemand(m.tree, m.frame, m.demand, m.topRate, core.Options{BestEffort: true})
	if err != nil {
		return err
	}
	m.plan = plan
	return nil
}

// Report is the signalling cost of one centralized adjustment.
type Report struct {
	// Messages is the total packets exchanged: 3l-1 for a requester at
	// layer l.
	Messages int
	// RequestHops is the hop count of the upward request (l).
	RequestHops int
	// Rejected indicates the gateway could not fit the new demand.
	Rejected bool
}

// SetLinkDemand applies a traffic change centrally: the request travels to
// the gateway, the gateway recomputes the schedule, and updates are pushed
// to the requesting node and its parent.
func (m *Manager) SetLinkDemand(l topology.Link, cells int, topRate float64) (Report, error) {
	if cells < 0 {
		return Report{}, fmt.Errorf("apas: negative demand %d", cells)
	}
	depth, err := m.tree.Depth(l.Child)
	if err != nil {
		return Report{}, err
	}
	old, oldRate := m.demand[l], m.topRate[l]
	m.demand[l] = cells
	m.topRate[l] = topRate
	if err := m.recompute(); err != nil {
		return Report{}, err
	}
	if cells > old && len(m.plan.Overflow) > 0 {
		// Roll back: centrally infeasible.
		m.demand[l] = old
		m.topRate[l] = oldRate
		if err := m.recompute(); err != nil {
			return Report{}, err
		}
		return Report{Messages: depth, RequestHops: depth, Rejected: true}, nil
	}
	// The link layer of the requesting node equals the child's depth l:
	// request to root (l) + update to the node (l) + update to its parent
	// (l-1) = 3l-1 packets.
	return Report{Messages: 3*depth - 1, RequestHops: depth}, nil
}

// Demand returns the current demand of a link.
func (m *Manager) Demand(l topology.Link) int { return m.demand[l] }
