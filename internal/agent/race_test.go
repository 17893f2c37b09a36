package agent_test

// Race-focused deployment test: a full 50-node fleet on a
// goroutine-per-node network with adjustment requests fired from many
// client goroutines at once. Run under -race (the CI gate does) this
// exercises every lock in Node and Fleet concurrently; the invariant
// checker then confirms the fleet settled into a consistent, collision-free
// state. This is the repo's only concurrent driver of the agents —
// everywhere else they are handlers on one virtual clock.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// chanNet is the concurrent network: one delivery goroutine per node fed by
// a channel (so per-pair delivery stays FIFO, which the agents rely on) and
// an in-flight count for quiescence. The channel is ideal — the lossy and
// reliable paths are Bus's and are tested there.
type chanNet struct {
	t       *testing.T
	inboxes map[topology.NodeID]chan frame
	// inFlight counts messages sent and not yet handled. A handler's own
	// sends are added before its message is marked done, so the count only
	// reaches zero at true quiescence.
	inFlight sync.WaitGroup
	workers  sync.WaitGroup
}

type frame struct {
	from topology.NodeID
	wire []byte
}

func (c *chanNet) Register(id topology.NodeID, h transport.Handler) {
	// 256 is far above what one Testbed50 node ever has queued; a full
	// inbox would block the sending handler.
	inbox := make(chan frame, 256)
	c.inboxes[id] = inbox
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		for f := range inbox {
			if msg, err := coap.Decode(f.wire); err != nil {
				c.t.Errorf("decode from %d: %v", f.from, err)
			} else {
				h.Handle(f.from, msg)
			}
			c.inFlight.Done()
		}
	}()
}

func (c *chanNet) Send(from, to topology.NodeID, msg coap.Message) error {
	inbox, ok := c.inboxes[to]
	if !ok {
		return fmt.Errorf("%w: %d", transport.ErrUnknownNode, to)
	}
	wire, err := msg.Encode()
	if err != nil {
		return err
	}
	c.inFlight.Add(1)
	inbox <- frame{from: from, wire: wire}
	return nil
}

// close waits for quiescence, then stops the delivery goroutines.
func (c *chanNet) close() {
	c.inFlight.Wait()
	for _, inbox := range c.inboxes {
		close(inbox)
	}
	c.workers.Wait()
}

func TestFleetConcurrentAdjustments(t *testing.T) {
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	net := &chanNet{t: t, inboxes: make(map[topology.NodeID]chan frame)}
	defer net.close()
	fleet, err := agent.Deploy(tree, integrationFrame(), demand, net)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	net.inFlight.Wait()
	if err := invariant.CheckFleet(fleet, nil); err != nil {
		t.Fatalf("after static phase: %v", err)
	}

	// Three rounds of concurrent demand changes on disjoint links, raised
	// from separate goroutines like independent management clients. Each
	// round must leave the fleet in a valid, invariant-satisfying state.
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
	// A telemetry-style poller reads the maintained fleet views the whole
	// time the handlers write them: every schedule it gets must assemble,
	// whatever mid-protocol state it catches.
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fleet.BuildSchedule(); err != nil {
				t.Errorf("concurrent BuildSchedule: %v", err)
				return
			}
			_ = fleet.PendingAdjustments() + fleet.Rejections()
		}
	}()
	defer poller.Wait()
	defer close(stop)

	for round, cells := range []int{4, 2, 5} {
		var wg sync.WaitGroup
		errs := make([]error, len(links))
		for i, l := range links {
			wg.Add(1)
			go func(i int, l topology.Link) {
				defer wg.Done()
				// Alternate between parent-side and child-side entry points:
				// both paths must be safe concurrently.
				if i%2 == 0 {
					errs[i] = fleet.SetLinkDemand(l, cells, float64(cells))
				} else {
					errs[i] = fleet.RequestLinkDemand(l, cells)
				}
			}(i, l)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d link %v: %v", round, links[i], err)
			}
		}
		net.inFlight.Wait()
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
}
