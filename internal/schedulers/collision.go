package schedulers

import (
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// CollisionStats summarises the conflicts of one schedule, the metric of
// Fig. 11. The network is treated as a single collision domain — the dense
// indoor deployment of the paper's testbed, where every transmission is
// audible to every receiver — so two links sharing a (slot, channel) cell
// always collide, and two links sharing a node in the same slot violate the
// half-duplex constraint.
type CollisionStats struct {
	// TotalTransmissions is the number of scheduled (link, cell) pairs.
	TotalTransmissions int
	// CellCollisions counts transmissions whose cell is also used by
	// another link.
	CellCollisions int
	// HalfDuplexCollisions counts transmissions that share a slot and a
	// node with another link without sharing the exact cell.
	HalfDuplexCollisions int
}

// Colliding returns the number of transmissions involved in any conflict.
func (s CollisionStats) Colliding() int {
	return s.CellCollisions + s.HalfDuplexCollisions
}

// Probability returns the collision probability: the fraction of scheduled
// transmissions that collide.
func (s CollisionStats) Probability() float64 {
	if s.TotalTransmissions == 0 {
		return 0
	}
	return float64(s.Colliding()) / float64(s.TotalTransmissions)
}

// AnalyzeCollisions computes the collision statistics of a schedule over a
// topology. It scans the schedule one slot at a time: a transmission is a
// cell collision when another transmission uses its cell, even one of the
// same link, and otherwise a half-duplex collision when another
// transmission in its slot touches one of its link's two nodes.
func AnalyzeCollisions(tree *topology.Tree, s *schedule.Schedule) (CollisionStats, error) {
	x := s.Index()
	ends, n, err := x.Endpoints(tree)
	if err != nil {
		return CollisionStats{}, err
	}
	cells, nodes := schedule.NewTally(x.Channels()), schedule.NewTally(n)
	var stats CollisionStats
	for t := range x.Slots() {
		slot := x.Slot(t)
		for _, e := range slot {
			cells.Add(t, e.Channel)
			nodes.Add(t, ends[e.Link][0])
			nodes.Add(t, ends[e.Link][1])
		}
		stats.TotalTransmissions += len(slot)
		for _, e := range slot {
			switch {
			case cells.Count(t, e.Channel) > 1:
				stats.CellCollisions++
			case nodes.Count(t, ends[e.Link][0]) > 1 || nodes.Count(t, ends[e.Link][1]) > 1:
				stats.HalfDuplexCollisions++
			}
		}
	}
	return stats, nil
}
