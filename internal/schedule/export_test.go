package schedule

import "github.com/harpnet/harp/internal/topology"

// CellSharers lists every cell assigned to more than one link, in (slot,
// channel) order, with the links sharing it.
func (s *Schedule) CellSharers() []SharedCell {
	x := s.Index()
	return x.SharedCells()
}

// HalfDuplexViolations counts pairs of distinct links that share a node and
// are scheduled in the same time slot.
func (s *Schedule) HalfDuplexViolations(tree *topology.Tree) (int, error) {
	x := s.Index()
	return x.HalfDuplexViolations(tree)
}
