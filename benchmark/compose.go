package main

import (
	"errors"
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/transport"
	"github.com/harpnet/harp/internal/vclock"
)

// Span names: layer.call. spanOp, spanDeploy and spanSetup are the roots
// the harness opens; the rest wrap one public call into one layer.
const (
	spanOp     = "op"
	spanDeploy = "op.deploy"
	spanSetup  = "setup"
	spanProbe  = "harness.heap_probe"
	// spanCompose wraps compose; its children are the deployment's phases.
	spanCompose = "cosim.compose"

	spanGenerate    = "topology.generate"
	spanCompute     = "traffic.compute"
	spanNewPlan     = "core.new_plan"
	spanPlanBuild   = "core.build_schedule"
	spanPlanCheck   = "core.validate"
	spanSetDemand   = "core.set_link_demand"
	spanClockNew    = "vclock.new"
	spanBusNew      = "transport.new_bus"
	spanBusRun      = "transport.run"
	spanSend        = "transport.send"
	spanAgentDeploy = "agent.deploy"
	spanAgentStart  = "agent.start"
	spanHandle      = "agent.handle"
	spanRequest     = "agent.request"
	spanDetector    = "agent.detector_start"
	spanValidate    = "agent.validate"
	spanFleetBuild  = "agent.build_schedule"
	spanSimNew      = "sim.new"
	spanSetSchedule = "sim.set_schedule"
	spanBind        = "sim.bind_clock"
	spanSimRun      = "sim.run"
)

// spanNet is the network the composed fleet is deployed on: the bus, with
// a span around every agent→transport Send and, through spanHandler,
// around every transport→agent Handle. It also keeps a sample of the
// messages sent for the codec probe.
type spanNet struct {
	bus *transport.Bus
	r   *run
}

func (n *spanNet) Send(from, to topology.NodeID, msg coap.Message) error {
	n.r.probes.capture(msg)
	n.r.probes.sentApp++
	sp := n.r.rec.begin(spanSend)
	err := n.bus.Send(from, to, msg)
	n.r.rec.end(sp)
	return err
}

// SendBackground and Crashed make spanNet an agent.DetectorNet.
func (n *spanNet) SendBackground(from, to topology.NodeID, msg coap.Message) error {
	n.r.probes.capture(msg)
	sp := n.r.rec.begin(spanSend)
	err := n.bus.SendBackground(from, to, msg)
	n.r.rec.end(sp)
	return err
}

func (n *spanNet) Crashed(id topology.NodeID) bool { return n.bus.Crashed(id) }

func (n *spanNet) Register(id topology.NodeID, h transport.Handler) {
	n.bus.Register(id, &spanHandler{h: h, rec: n.r.rec})
}

type spanHandler struct {
	h   transport.Handler
	rec *recorder
}

func (s *spanHandler) Handle(from topology.NodeID, msg coap.Message) {
	sp := s.rec.begin(spanHandle)
	s.h.Handle(from, msg)
	s.rec.end(sp)
}

// HandleSendFailure forwards give-ups: the bus finds the agent's
// FailureHandler through the registered handler, which is this wrapper.
func (s *spanHandler) HandleSendFailure(to topology.NodeID, msg coap.Message) {
	if fh, ok := s.h.(transport.FailureHandler); ok {
		fh.HandleSendFailure(to, msg)
	}
}

// composed is the co-simulation assembled by the harness from the layers'
// own public constructors, in the order cosim.New calls them, with a span
// around each call. Adjustments run the control plane to quiescence before
// the MAC moves on (cosim interleaves the two), which leaves every
// protocol message, commit and final schedule identical — the harness
// checks that against the co-simulated twin of the same inputs.
type composed struct {
	r     *run
	clock *vclock.Clock
	bus   *transport.Bus
	net   *spanNet
	fleet *agent.Fleet
	mac   *sim.Simulator
	sched *schedule.Schedule
}

// subtreeRouter routes a node to the clock shard of its gateway-child
// subtree, as cosim does (routing never changes dispatch order).
func subtreeRouter(tree *topology.Tree, shards int) func(topology.NodeID) int {
	routing := make([]int32, tree.IndexCap())
	for k, root := range tree.Children(topology.GatewayID) {
		sub, err := tree.Subtree(root)
		if err != nil {
			continue
		}
		for _, id := range sub {
			routing[tree.Index(id)] = int32(1 + k%(shards-1))
		}
	}
	return func(id topology.NodeID) int {
		if i := tree.Index(id); i >= 0 && i < len(routing) {
			return int(routing[i])
		}
		return 0
	}
}

// compose deploys cfg the way cosim.New does. cfg.Demand must be set.
// probeHeap additionally measures the heap the fleet and the MAC retain
// (forced collections, inside their own spans).
func compose(r *run, cfg cosim.Config, probeHeap bool) (*composed, error) {
	rec := r.rec
	c := &composed{r: r}
	r.instance()
	root := rec.begin(spanCompose)
	defer rec.end(root)

	sp := rec.begin(spanClockNew)
	c.clock = vclock.New()
	if cfg.Shards > 1 {
		c.clock.SetShards(cfg.Shards)
	}
	rec.end(sp)

	sp = rec.begin(spanBusNew)
	bus, err := transport.NewBusOnClock(c.clock, cfg.Frame.Slots, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		bus.SetShardRouter(subtreeRouter(cfg.Tree, cfg.Shards))
	}
	if cfg.Reliable {
		bus.EnableReliability(cfg.Seed)
	}
	if cfg.ControlPDR > 0 && cfg.ControlPDR < 1 {
		bus.SetFaults(transport.FaultConfig{Drop: 1 - cfg.ControlPDR, Seed: cfg.ControlFaultSeed})
	}
	c.bus, c.net = bus, &spanNet{bus: bus, r: r}
	rec.end(sp)

	var heap0 uint64
	if probeHeap {
		heap0 = r.heapProbe()
	}
	sp = rec.begin(spanAgentDeploy)
	c.fleet, err = agent.Deploy(cfg.Tree, cfg.Frame, cfg.Demand, c.net,
		agent.WithRootGap(cfg.RootGap), agent.WithMetrics(bus.Metrics()))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(spanAgentStart)
	c.fleet.Start()
	rec.end(sp)
	sp = rec.begin(spanBusRun)
	_, err = bus.Run()
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("static phase: %w", err)
	}
	if probeHeap {
		r.layer["agent.bytes_per_node"] = float64(r.heapProbe()-heap0) / float64(cfg.Tree.Len())
	}
	if err := c.commit(); err != nil {
		return nil, fmt.Errorf("static phase: %w", err)
	}
	if bus.Faults().GiveUps > 0 {
		return nil, errors.New("static phase gave up an exchange")
	}

	if probeHeap {
		heap0 = r.heapProbe()
	}
	sp = rec.begin(spanSimNew)
	c.mac, err = sim.New(sim.Config{
		Tree: cfg.Tree, Frame: cfg.Frame, Tasks: cfg.Tasks,
		PDR: cfg.PDR, MaxQueue: cfg.MaxQueue, MaxRetries: cfg.MaxRetries, Seed: cfg.Seed,
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	c.mac.SetMetrics(bus.Metrics())
	sp = rec.begin(spanSetSchedule)
	c.mac.SetSchedule(c.sched)
	rec.end(sp)
	if probeHeap {
		r.layer["sim.bytes_per_node"] = float64(r.heapProbe()-heap0) / float64(cfg.Tree.Len())
	}
	sp = rec.begin(spanBind)
	err = c.mac.BindClock(c.clock)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	c.fleet.BindVirtualTime(c.clock.Now)
	return c, nil
}

// commit validates the fleet and rebuilds the global schedule, as cosim
// does when the control plane quiesces.
func (c *composed) commit() error {
	rec := c.r.rec
	sp := rec.begin(spanValidate)
	err := c.fleet.Validate()
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(spanFleetBuild)
	c.sched, err = c.fleet.BuildSchedule()
	rec.end(sp)
	return err
}

// adjust issues the demand requests, drains the control plane, commits and
// swaps the schedule into the MAC. It returns the protocol messages the
// adjustment took (cosim's Commit.Messages).
func (c *composed) adjust(request func(*agent.Fleet) error) (int, error) {
	rec := c.r.rec
	c.bus.ResetCounters()
	sp := rec.begin(spanRequest)
	err := request(c.fleet)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.begin(spanBusRun)
	_, err = c.bus.Run()
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	if err := c.commit(); err != nil {
		return 0, err
	}
	sp = rec.begin(spanSetSchedule)
	c.mac.SetSchedule(c.sched)
	rec.end(sp)
	return c.bus.Delivered(), nil
}

// runMAC advances the data plane (and whatever the clock holds) n slots.
func (c *composed) runMAC(n int) error {
	sp := c.r.rec.begin(spanSimRun)
	err := c.mac.Run(n)
	c.r.rec.end(sp)
	if err != nil {
		return err
	}
	return c.bus.Err()
}

// heapProbe returns the heap in use after a forced collection, under a
// span of its own so no layer is charged for it.
func (r *run) heapProbe() uint64 {
	sp := r.rec.begin(spanProbe)
	h := heapInUse()
	r.rec.end(sp)
	return h
}

// tally adds the bus's counters to the per-layer record. The registry is
// cleared at every adjustment, so call it just before each reset and once
// when the instance is done.
func (r *run) tally(bus *transport.Bus) {
	if !r.cfg.traced || !r.measuring() {
		return
	}
	f := bus.Faults()
	r.layer["transport.delivered"] += float64(bus.Delivered())
	r.layer["transport.retransmissions"] += float64(f.Retransmissions)
	r.layer["transport.dup_suppressed"] += float64(f.DuplicatesSuppressed)
	r.layer["transport.dropped"] += float64(f.Dropped)
	r.layer["transport.giveups"] += float64(f.GiveUps)
}
