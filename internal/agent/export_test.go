package agent

// QueuedDeferrals returns the adjust requests currently waiting on some
// agent's per-layer deferral queue (dirState.deferred), for external tests
// that cannot reach agent state.
func QueuedDeferrals(f *Fleet) int {
	queued := 0
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		for d := range n.dirs {
			for _, q := range n.dirs[d].deferred {
				queued += len(q)
			}
		}
	}
	return queued
}
