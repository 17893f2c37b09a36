// Package cosim runs the distributed HARP protocol and the slot-accurate
// MAC simulator against one shared virtual clock — the co-simulation of
// the paper's testbed (§VI-C). An agent.Fleet exchanges real CoAP
// /intf–/part–/sched messages over a transport.Bus whose management-cell
// latencies are events on the clock, while a sim.Simulator drives data
// packets slot by slot on the same clock. When traffic changes, the data
// plane keeps flowing over the OLD schedule until the protocol actually
// quiesces; the new schedule is installed in the MAC at the slot the
// exchange commits. Fig. 10's disruption window and Table II's convergence
// times therefore emerge from message timing, instead of being injected
// analytically.
package cosim

import (
	"errors"
	"fmt"
	"math"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/proto"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
	"github.com/harpnet/harp/internal/vclock"
)

// Config parameterises a co-simulation.
type Config struct {
	Tree  *topology.Tree
	Frame schedule.Slotframe
	// Tasks drive data-plane packet generation.
	Tasks *traffic.Set
	// Demand is the provisioned per-link demand the agents are deployed
	// with; nil derives it from Tasks (exact provisioning, no slack).
	Demand *traffic.Demand
	// PDR, MaxQueue, MaxRetries and Seed configure the MAC simulator as in
	// sim.Config. Seed also drives the transport's management-cell latency
	// sampling (independent streams).
	PDR        float64
	MaxQueue   int
	MaxRetries int
	Seed       int64
	// RootGap reserves slots after the data sub-frame boundary, as the
	// experiments' plans do.
	RootGap int

	// ControlPDR is the control plane's per-delivery packet delivery ratio:
	// each management-cell frame is dropped with probability 1-ControlPDR,
	// from a fault RNG stream independent of the latency sampling. Zero
	// means lossless (the default); set Reliable when below 1, or the
	// static phase will not converge.
	ControlPDR float64
	// ControlDup duplicates each delivered control frame with the given
	// probability (testing duplicate suppression end to end).
	ControlDup float64
	// ControlFaultSeed seeds the fault stream (only read when faults are on).
	ControlFaultSeed int64
	// Reliable runs the control plane over CoAP CON exchanges
	// (retransmission + Message-ID dedup, RFC 7252 §4.2) instead of bare
	// NON messages.
	Reliable bool
	// TolerateStaticLoss keeps a run alive when the static phase fails to
	// produce a valid complete schedule (possible at harsh loss when a
	// CON exchange exhausts MAX_RETRANSMIT): New returns the co-sim with
	// StaticConverged=false instead of an error.
	TolerateStaticLoss bool

	// Trace records a causal virtual-time event trace of the whole run
	// (transport, agents, MAC, triggers and commits) on CoSim.Tracer.
	// Off by default: the hot paths then pay one nil check per hook.
	Trace bool

	// Shards splits the virtual-time kernel into that many independent
	// event heaps (vclock.Clock.SetShards), with control-plane deliveries
	// routed by gateway-child subtree and MAC slot events on shard 0.
	// Dispatch order — and therefore every record and metric — is
	// identical at any shard count (the kernel pops the global (time,seq)
	// minimum across shard heads); sharding only bounds per-heap size on
	// very large fleets. 0 or 1 keeps the single global heap.
	Shards int
}

// AutoShards returns the natural shard count for a tree: one shard per
// gateway-child subtree plus shard 0 for the gateway and the MAC's slot
// events.
func AutoShards(tree *topology.Tree) int {
	return 1 + len(tree.Children(topology.GatewayID))
}

// subtreeShardRouter maps each node to the shard of its gateway-child
// subtree (the gateway itself to shard 0). The routing is computed once at
// deploy time; a later Reparent leaves a moved subtree on its old shard,
// which is safe — shard placement never affects dispatch order, only which
// heap holds the event.
func subtreeShardRouter(tree *topology.Tree, shards int) func(topology.NodeID) int {
	routing := make([]int32, tree.IndexCap())
	roots := tree.Children(topology.GatewayID)
	rootShard := make(map[topology.NodeID]int32, len(roots))
	for k, r := range roots {
		rootShard[r] = int32(1 + k%(shards-1))
	}
	for i := 0; i < tree.IndexCap(); i++ {
		id := tree.NodeAt(i)
		if id == topology.GatewayID {
			continue
		}
		cur := id
		for {
			parent, err := tree.Parent(cur)
			if err != nil || parent == topology.None {
				break
			}
			if parent == topology.GatewayID {
				routing[i] = rootShard[cur]
				break
			}
			cur = parent
		}
	}
	return func(id topology.NodeID) int {
		if i := tree.Index(id); i >= 0 && i < len(routing) {
			return int(routing[i])
		}
		return 0
	}
}

// Commit records one control-plane adjustment observed end to end: the
// slot the traffic change was injected, the slot the protocol quiesced and
// the schedule was hot-swapped into the MAC, and the message cost of the
// exchange. CommitSlot - TriggerSlot is the measured disruption window.
type Commit struct {
	TriggerSlot int
	CommitSlot  int
	// Messages is the total delivered during the exchange; Requests and
	// ScheduleMessages are the PUT /intf and POST /sched counts (the
	// "msg"/"layers"/"sched" columns of Table II).
	Messages         int
	Requests         int
	ScheduleMessages int
	Participants     int
}

// Slotframes returns the disruption window in whole slotframes.
func (c Commit) Slotframes(frame schedule.Slotframe) int {
	return int(math.Ceil(float64(c.CommitSlot-c.TriggerSlot) / float64(frame.Slots)))
}

// DisruptionSec returns the disruption window in seconds.
func (c Commit) DisruptionSec(frame schedule.Slotframe) float64 {
	return float64(c.CommitSlot-c.TriggerSlot) * frame.SlotDuration.Seconds()
}

// CoSim couples a fleet and a MAC simulator on one clock.
type CoSim struct {
	Clock *vclock.Clock
	Bus   *transport.Bus
	Fleet *agent.Fleet
	Sim   *sim.Simulator
	// Tracer is the run's event tracer (nil unless Config.Trace).
	Tracer *obs.Tracer

	frame       schedule.Slotframe
	pending     bool   // an adjustment awaits protocol quiescence
	trigger     int    // slot of the pending adjustment's injection
	triggerSpan uint64 // trace span of the pending trigger event
	// Commits holds every committed adjustment in order.
	Commits []Commit
	// StaticConverged reports whether the static phase produced a valid
	// complete schedule (always true unless TolerateStaticLoss absorbed a
	// failure).
	StaticConverged bool
	// tolerateLoss relaxes the commit-time validation panic: under loss an
	// adjustment can die with a give-up, and the commit then records the
	// (still valid) pre-adjustment schedule.
	tolerateLoss bool
}

// New deploys the fleet, runs the static allocation phase to completion on
// the shared clock, installs the resulting schedule in the MAC simulator
// and binds the simulator to the clock at the next whole slot boundary.
func New(cfg Config) (*CoSim, error) {
	if cfg.Tree == nil || cfg.Tasks == nil {
		return nil, errors.New("cosim: nil tree or tasks")
	}
	demand := cfg.Demand
	if demand == nil {
		var err error
		demand, err = traffic.Compute(cfg.Tree, cfg.Tasks)
		if err != nil {
			return nil, err
		}
	}
	clock := vclock.New()
	if cfg.Shards > 1 {
		clock.SetShards(cfg.Shards)
	}
	bus, err := transport.NewBusOnClock(clock, cfg.Frame.Slots, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bus.Reserve(cfg.Tree.Len()) // agent.Deploy registers every node
	if cfg.Shards > 1 {
		bus.SetShardRouter(subtreeShardRouter(cfg.Tree, cfg.Shards))
	}
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(clock)
		bus.SetTracer(tracer)
		tracer.Emit(obs.Ev(obs.KindMeta).WithDetail(obs.Meta{
			SlotsPerFrame: cfg.Frame.Slots,
			SlotSeconds:   cfg.Frame.SlotDuration.Seconds(),
			Nodes:         cfg.Tree.Len(),
		}.Detail()))
	}
	if cfg.Reliable {
		bus.EnableReliability(cfg.Seed)
	}
	if cfg.ControlPDR < 0 || cfg.ControlPDR > 1 {
		return nil, fmt.Errorf("cosim: control PDR %v out of [0,1]", cfg.ControlPDR)
	}
	drop := 0.0
	if cfg.ControlPDR > 0 {
		drop = 1 - cfg.ControlPDR
	}
	if drop > 0 || cfg.ControlDup > 0 {
		if drop > 0 && !cfg.Reliable {
			return nil, fmt.Errorf("cosim: lossy control plane (PDR %v) needs Reliable", cfg.ControlPDR)
		}
		bus.SetFaults(transport.FaultConfig{Drop: drop, Dup: cfg.ControlDup, Seed: cfg.ControlFaultSeed})
	}
	fleet, err := agent.Deploy(cfg.Tree, cfg.Frame, demand, bus,
		agent.WithRootGap(cfg.RootGap), agent.WithTracer(tracer), agent.WithMetrics(bus.Metrics()))
	if err != nil {
		return nil, err
	}
	staticConverged := true
	fleet.Start()
	if _, err := bus.Run(); err != nil {
		return nil, fmt.Errorf("cosim: static phase: %w", err)
	}
	// One build serves both the convergence verdict and the MAC: validate
	// the schedule the MAC is about to run, not a throw-away copy of it.
	sched, err := fleet.BuildSchedule()
	built := err == nil
	if built {
		debugCheckView(fleet, sched)
		err = sched.Validate(fleet.Tree)
	}
	if err != nil {
		if !cfg.TolerateStaticLoss {
			return nil, fmt.Errorf("cosim: fleet invalid after static phase: %w", err)
		}
		staticConverged = false
	}
	if staticConverged && bus.Faults().GiveUps > 0 {
		// Every schedule cell may be in place, but an abandoned exchange
		// means some agent state was withdrawn mid-protocol: treat the run
		// as non-converged for reporting.
		staticConverged = false
		if !cfg.TolerateStaticLoss {
			return nil, fmt.Errorf("cosim: static phase gave up %d exchanges", bus.Faults().GiveUps)
		}
	}
	if debugChecks && staticConverged {
		if err := invariant.CheckFleet(fleet, nil); err != nil {
			panic(fmt.Sprintf("cosim: static phase invariant: %v", err))
		}
	}
	if !built {
		// A half-converged fleet can hold overlapping assignments; the MAC
		// then starts on an empty schedule (no cells, nothing flows). A
		// built-but-invalid schedule is still installed as it is.
		sched, err = schedule.NewSchedule(cfg.Frame)
		if err != nil {
			return nil, err
		}
	}
	mac, err := sim.New(sim.Config{
		Tree:       cfg.Tree,
		Frame:      cfg.Frame,
		Tasks:      cfg.Tasks,
		PDR:        cfg.PDR,
		MaxQueue:   cfg.MaxQueue,
		MaxRetries: cfg.MaxRetries,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	mac.SetTracer(tracer)
	mac.SetMetrics(bus.Metrics())
	mac.SetSchedule(sched)
	if err := mac.BindClock(clock); err != nil {
		return nil, err
	}
	cs := &CoSim{
		Clock: clock, Bus: bus, Fleet: fleet, Sim: mac, Tracer: tracer, frame: cfg.Frame,
		StaticConverged: staticConverged,
		tolerateLoss:    cfg.TolerateStaticLoss,
	}
	// Telemetry for the dynamic phase: every agent gets the shared clock
	// so escalation→commit latencies are stamped (the static phase is
	// over — its exchanges are deliberately outside the distribution),
	// and the clock samples window gauges at each slotframe boundary.
	fleet.BindVirtualTime(clock.Now)
	clock.SetWindowHook(float64(cfg.Frame.Slots), cs.onWindow)
	// Demand-driven slot hook: while an adjustment is in flight the commit
	// must land at the first slot boundary after the control plane
	// quiesces, so every slot is demanded; once quiesced observe is a
	// no-op and demands nothing, letting the MAC skip idle slots. pending
	// only changes inside slot callbacks (Adjust runs under At) or between
	// Run calls, which is what EachSlotDemand requires.
	mac.EachSlotDemand(
		func(*sim.Simulator) { cs.observe() },
		func(next int) (int, bool) { return next, cs.pending },
	)
	return cs, nil
}

// observe runs at the start of every slot: once a pending adjustment's
// protocol traffic has drained, the fleet's schedule is committed into the
// MAC effective this very slot — the earliest slot boundary after the last
// protocol message, exactly when the testbed's nodes switch schedules.
func (cs *CoSim) observe() {
	if !cs.pending || cs.Bus.Pending() != 0 {
		return
	}
	cs.pending = false
	sched, err := cs.Fleet.BuildSchedule()
	if err == nil {
		debugCheckView(cs.Fleet, sched)
		err = sched.Validate(cs.Fleet.Tree)
	}
	if err != nil {
		if !cs.tolerateLoss {
			panic(fmt.Sprintf("cosim: fleet invalid at commit: %v", err))
		}
		return // keep running on the old schedule; never swap in a bad one
	}
	if debugChecks {
		// The static plan no longer matches after dynamic adjustments, so
		// convergence against it is skipped (nil plan) — the structural
		// partition/schedule invariants are what must hold at commit.
		if err := invariant.CheckFleet(cs.Fleet, nil); err != nil {
			panic(fmt.Sprintf("cosim: commit invariant: %v", err))
		}
	}
	cs.Sim.SetSchedule(sched)
	cm := Commit{
		TriggerSlot:      cs.trigger,
		CommitSlot:       cs.Sim.Now(),
		Messages:         cs.Bus.Delivered(),
		Requests:         cs.Bus.Count(coap.PUT, proto.PathInterface),
		ScheduleMessages: cs.Bus.Count(coap.POST, proto.PathSchedule),
		Participants:     cs.Bus.ParticipantCount(),
	}
	cs.Commits = append(cs.Commits, cm)
	// Run-cumulative disruption distribution (milli-slots): unlike the
	// counters it survives the per-adjustment reset, so the end-of-run
	// report sees every window.
	cs.Bus.Metrics().Dist(obs.Key(obs.MetricDisruptionMs)).Observe(int64(cm.CommitSlot-cm.TriggerSlot) * 1000)
	if tr := cs.Tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindCosimCommit).WithSlot(cm.CommitSlot, obs.None).
			WithParent(cs.triggerSpan).
			WithDetail(fmt.Sprintf("msgs=%d requests=%d sched=%d", cm.Messages, cm.Requests, cm.ScheduleMessages)))
	}
	cs.triggerSpan = 0
}

// Adjust injects a traffic change: message counters reset, fn issues the
// demand requests through the fleet (e.g. Fleet.RequestLinkDemand), and
// the harness commits the adjusted schedule into the MAC at the first slot
// boundary after the protocol quiesces. Call it from an At callback or
// between Run calls; one adjustment may be in flight at a time.
func (cs *CoSim) Adjust(fn func(*agent.Fleet) error) error {
	if cs.pending {
		return errors.New("cosim: adjustment already in flight")
	}
	cs.Bus.ResetCounters()
	cs.trigger = cs.Sim.Now()
	if tr := cs.Tracer; tr.Enabled() {
		// The trigger span parents everything the adjustment causes: the
		// demand-request sends fn makes chain off it, and the eventual
		// cosim.commit names it — the causal chain harptrace replays.
		cs.triggerSpan = tr.Emit(obs.Ev(obs.KindCosimTrigger).WithSlot(cs.trigger, obs.None))
		tr.Push(cs.triggerSpan)
		defer tr.Pop()
	}
	if err := fn(cs.Fleet); err != nil {
		return err
	}
	cs.pending = true
	return nil
}

// At registers fn at the start of the given absolute slot, before the
// harness's quiescence check — an Adjust made here that needs no messages
// commits in the same slot.
func (cs *CoSim) At(slot int, fn func(*CoSim)) {
	cs.Sim.At(slot, func(*sim.Simulator) { fn(cs) })
}

// Run advances the co-simulation by n slots, interleaving slot events and
// protocol message deliveries in timestamp order.
func (cs *CoSim) Run(n int) error {
	if err := cs.Sim.Run(n); err != nil {
		return err
	}
	return cs.Bus.Err()
}

// RunSlotframes advances by n whole slotframes.
func (cs *CoSim) RunSlotframes(n int) error {
	return cs.Run(n * cs.frame.Slots)
}

// Quiesced reports whether no adjustment is awaiting commit.
func (cs *CoSim) Quiesced() bool { return !cs.pending }

// EnableSelfHealing attaches a failure detector to the co-simulation: from
// now on Bus.Crash outages are discovered from missing keepalives, orphans
// are adopted, returning nodes are readmitted, and stale in-flight
// adjustments are aborted — all on the shared virtual clock. tasks drives
// the post-move demand recomputation (routes shift when a subtree is
// re-homed); cfg.Demand, if set, overrides it. Call after New (the static
// phase must have drained: the recurring sweep never lets the clock empty)
// and drive the run with CoSim.Run.
func (cs *CoSim) EnableSelfHealing(cfg agent.DetectorConfig, tasks *traffic.Set) (*agent.Detector, error) {
	if cfg.Demand == nil {
		if tasks == nil {
			return nil, errors.New("cosim: self-healing needs tasks or a demand provider")
		}
		tree := cs.Fleet.Tree
		cfg.Demand = func(moved, newParent topology.NodeID) *traffic.Demand {
			t := tree
			if moved != topology.None {
				t = tree.Clone()
				if err := t.Reparent(moved, newParent); err != nil {
					// The detector never proposes an illegal move; fall back
					// to the current routes rather than dying silently.
					t = tree
				}
			}
			d, err := traffic.Compute(t, tasks)
			if err != nil {
				return &traffic.Demand{}
			}
			return d
		}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = cs.Tracer
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cs.Bus.Metrics()
	}
	det, err := agent.NewDetector(cs.Fleet, cs.Bus, cs.Clock, cfg)
	if err != nil {
		return nil, err
	}
	det.Start()
	return det, nil
}

// onWindow runs when virtual time first crosses a slotframe-window
// boundary (vclock.SetWindowHook): it samples the gauge-style window
// series for the window just completed. With event-driven slot skipping
// a quiet stretch may cross several boundaries at once; the intermediate
// windows stay zero, which is truthful — nothing was queued or pending
// while the MAC slept.
func (cs *CoSim) onWindow(window int64, at float64) {
	m := cs.Bus.Metrics()
	m.Series(obs.Key(obs.MetricWinQueueDepth), cs.frame.Slots).Set(window-1, int64(cs.Sim.PendingPackets()))
	m.Series(obs.Key(obs.MetricWinPending), cs.frame.Slots).Set(window-1, int64(cs.Fleet.PendingAdjustments()))
}
