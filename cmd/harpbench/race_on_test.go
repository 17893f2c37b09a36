//go:build race

package main

// raceEnabled lets TestBaselineIsCurrent skip under the race detector: the
// quick suite is an order of magnitude slower there, and `make scale-smoke`
// / `chaos-soak` already run the sharded tiers under -race.
const raceEnabled = true
