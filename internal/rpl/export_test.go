package rpl

import "github.com/harpnet/harp/internal/topology"

// ETX returns the link quality between a and b (ok false when no link).
func (g *Graph) ETX(a, b topology.NodeID) (float64, bool) {
	v, ok := g.etx[mkEdge(a, b)]
	return v, ok
}
