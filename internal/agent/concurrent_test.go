package agent_test

import (
	"testing"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/topology"
)

// TestFleetConcurrentAdjustments overlaps adjustments in virtual time: each
// round issues eight demand changes at one instant, so their escalations
// are in flight together and meet at shared ancestors. A request reaching
// a layer whose own escalation is still pending must wait on that layer's
// deferral queue and replay after the grant; without the queue one of the
// overlapping requests is lost. Every round must leave the fleet valid,
// invariant-clean and without rejections.
func TestFleetConcurrentAdjustments(t *testing.T) {
	fleet, bus, _ := deployEcho(t, topology.Testbed50(), 1)
	if err := invariant.CheckFleet(fleet, nil); err != nil {
		t.Fatalf("after static phase: %v", err)
	}
	links := []topology.Link{
		{Child: 10, Direction: topology.Uplink},
		{Child: 11, Direction: topology.Downlink},
		{Child: 12, Direction: topology.Uplink},
		{Child: 13, Direction: topology.Downlink},
		{Child: 14, Direction: topology.Uplink},
		{Child: 15, Direction: topology.Uplink},
		{Child: 16, Direction: topology.Downlink},
		{Child: 17, Direction: topology.Uplink},
	}
	// The step hook runs between events, so it sees every queue a handler
	// left behind.
	peakDeferred := 0
	bus.Clock().SetStepHook(func(float64, uint64) {
		peakDeferred = max(peakDeferred, agent.QueuedDeferrals(fleet))
	})
	for round, cells := range []int{4, 2, 5} {
		for i, l := range links {
			// Alternate between the parent-side and child-side entry points.
			var err error
			if i%2 == 0 {
				err = fleet.SetLinkDemand(l, cells, float64(cells))
			} else {
				err = fleet.RequestLinkDemand(l, cells)
			}
			if err != nil {
				t.Fatalf("round %d link %v: %v", round, l, err)
			}
		}
		if _, err := bus.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := fleet.Validate(); err != nil {
			t.Fatalf("round %d: fleet invalid: %v", round, err)
		}
		if err := invariant.CheckFleet(fleet, nil); err != nil {
			t.Fatalf("round %d: invariants violated: %v", round, err)
		}
	}
	if fleet.Rejections() != 0 {
		t.Fatalf("feasible concurrent demands rejected %d times", fleet.Rejections())
	}
	if peakDeferred == 0 {
		t.Fatal("no request ever waited on a deferral queue: the rounds did not overlap at a shared ancestor")
	}
	t.Logf("peak deferred requests: %d", peakDeferred)
}
