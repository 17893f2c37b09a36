package sim

import "github.com/harpnet/harp/internal/topology"

// QueueDepth returns the current queue length of a link.
func (s *Simulator) QueueDepth(l topology.Link) int {
	ix, ok := s.queueIx[l]
	if !ok {
		return 0
	}
	return s.queueList[ix].depth()
}
