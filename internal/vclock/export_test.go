package vclock

// NumShards returns the current shard count (>= 1).
func (c *Clock) NumShards() int { return len(c.shards) }

// NextAt returns the time of the earliest pending event.
func (c *Clock) NextAt() (float64, bool) {
	si := c.minShard()
	if si < 0 {
		return 0, false
	}
	return c.shards[si].heap[0].at, true
}
