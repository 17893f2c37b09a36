package experiments

import (
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// Fig10Config parameterises the dynamic-adjustment validation (§VI-C): the
// testbed network runs with one packet/slotframe everywhere; the observed
// node's rate is raised twice — the first increase is absorbed by idle
// cells in the local partition, the second forces a multi-hop partition
// adjustment — and its end-to-end latency is traced over time.
type Fig10Config struct {
	// Node is the observed node (paper: Node 15).
	Node topology.NodeID
	// Rate steps: the paper uses 1 -> 1.5 -> 3 packets/slotframe.
	Step1Rate, Step2Rate float64
	// Step times in slotframes from the start.
	Step1At, Step2At int
	// TotalSlotframes is the run length.
	TotalSlotframes int
	PDR             float64
	Seed            int64
	// Trace enables protocol tracing; the causal event trace lands in
	// Fig10Result.Trace.
	Trace bool
	// Inspect, when non-nil, receives live read-only telemetry snapshots
	// (one per slotframe window plus a final one carrying the health
	// report) for the -http inspection endpoint.
	Inspect *obs.Inspector
}

// DefaultFig10 returns the paper's scenario.
func DefaultFig10() Fig10Config {
	return Fig10Config{
		Node:            15,
		Step1Rate:       1.5,
		Step2Rate:       3,
		Step1At:         30,
		Step2At:         60,
		TotalSlotframes: 110,
		PDR:             1,
		Seed:            5,
	}
}

// Fig10Event records how one rate step was absorbed.
type Fig10Event struct {
	AtSec      float64
	Rate       float64
	Case       string
	Messages   int // protocol messages delivered during the adjustment
	SchedMsgs  int
	DelaySec   float64 // disruption window: rate step to schedule swap
	Slotframes int     // window in whole slotframes
	// CommitSlot is the absolute slot the new schedule entered the MAC
	// (zero while Case is "uncommitted").
	CommitSlot int
}

// Fig10Result carries the latency trace of the observed node's task.
type Fig10Result struct {
	// Points are (delivery time s, end-to-end latency s) per packet.
	Points []stats.Point
	Events []Fig10Event
	Table  *stats.Table
	// MaxLatencySec is the worst packet latency observed (the spike of the
	// second adjustment).
	MaxLatencySec float64
	// SwapDrops counts packets stranded by mid-run schedule swaps.
	SwapDrops int
	// Trace is the causal protocol event trace (nil unless
	// Fig10Config.Trace is set).
	Trace []obs.Event
	// EscCommit is the dynamic phase's escalation→commit latency
	// distribution in milli-slots.
	EscCommit obs.Hist
	// Health is the end-of-run SLO verdict against the default budgets.
	Health *obs.HealthReport
}

// fig10Provisioning returns the scenario's task set and provisioned
// per-link demand: every link carries its task demand, and the observed
// node's path links get one spare cell beyond it — the "idle cells in the
// allocated partition" that let the first rate step resolve locally on the
// paper's testbed.
func fig10Provisioning(tree *topology.Tree, node topology.NodeID) (*traffic.Set, map[topology.Link]int, error) {
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		return nil, nil, err
	}
	baseDemand, err := traffic.Compute(tree, tasks)
	if err != nil {
		return nil, nil, err
	}
	path, err := tree.PathToGateway(node)
	if err != nil {
		return nil, nil, err
	}
	slackLinks := make(map[topology.Link]bool)
	for _, hop := range path[:len(path)-1] {
		for _, d := range topology.Directions() {
			slackLinks[topology.Link{Child: hop, Direction: d}] = true
		}
	}
	inflated := make(map[topology.Link]int)
	for _, l := range baseDemand.Links() {
		inflated[l] = baseDemand.Cells(l)
		if slackLinks[l] {
			inflated[l]++
		}
	}
	return tasks, inflated, nil
}

// Fig10 co-simulates the dynamic traffic-change scenario: each rate step
// triggers the real CoAP adjustment protocol over management cells on the
// shared virtual clock, the data plane keeps flowing over the OLD schedule
// while the exchange is in flight, and the swap lands at the slot the
// protocol actually commits — the disruption window is measured, not
// modelled.
func Fig10(cfg Fig10Config) (Fig10Result, error) {
	tree := topology.Testbed50()
	frame := TestbedSlotframe()
	if !tree.Has(cfg.Node) || cfg.Node == topology.GatewayID {
		return Fig10Result{}, fmt.Errorf("experiments: invalid observed node %d", cfg.Node)
	}
	tasks, inflated, err := fig10Provisioning(tree, cfg.Node)
	if err != nil {
		return Fig10Result{}, err
	}
	cs, err := cosim.New(cosim.Config{
		Tree:    tree,
		Frame:   frame,
		Tasks:   tasks,
		Demand:  traffic.FromCells(inflated),
		PDR:     cfg.PDR,
		Seed:    cfg.Seed,
		RootGap: 2,
		Trace:   cfg.Trace,
	})
	if err != nil {
		return Fig10Result{}, err
	}
	if cfg.Inspect != nil {
		cs.AttachInspector(cfg.Inspect)
	}

	// provisioned tracks each link's current allocation so a step requests
	// adjustment only where its new demand overflows it. Growth policy:
	// the new requirement plus one spare cell to drain the backlog built
	// during reconfiguration; never shrink — releases would not return
	// partition space anyway (§V).
	provisioned := inflated
	type stepMeta struct {
		slot int
		rate float64
	}
	var steps []stepMeta
	applyStep := func(atSlotframe int, rate float64) {
		slot := atSlotframe * frame.Slots
		steps = append(steps, stepMeta{slot: slot, rate: rate})
		cs.At(slot, func(c *cosim.CoSim) {
			_ = c.Sim.SetTaskRate(traffic.TaskID(cfg.Node), rate) //harplint:allow errcheck rate steps target the sim best-effort; the checked SetRate below is authoritative
			if err := tasks.SetRate(traffic.TaskID(cfg.Node), rate); err != nil {
				return
			}
			newDemand, err := traffic.Compute(tree, tasks)
			if err != nil {
				return
			}
			_ = c.Adjust(func(f *agent.Fleet) error { //harplint:allow errcheck a rejected adjustment keeps the old partition; convergence metrics expose it
				for _, l := range newDemand.Links() {
					needed := newDemand.Cells(l)
					if needed <= provisioned[l] {
						continue
					}
					target := needed + 1
					if err := f.RequestLinkDemand(l, target); err != nil {
						return err
					}
					provisioned[l] = target
				}
				return nil
			})
		})
	}
	applyStep(cfg.Step1At, cfg.Step1Rate)
	applyStep(cfg.Step2At, cfg.Step2Rate)

	if err := cs.RunSlotframes(cfg.TotalSlotframes); err != nil {
		return Fig10Result{}, err
	}

	slotSec := frame.SlotDuration.Seconds()
	var events []Fig10Event
	for i, st := range steps {
		ev := Fig10Event{AtSec: float64(st.slot) * slotSec, Rate: st.rate}
		if i < len(cs.Commits) {
			cm := cs.Commits[i]
			ev.Messages = cm.Messages
			ev.SchedMsgs = cm.ScheduleMessages
			ev.DelaySec = cm.DisruptionSec(frame)
			ev.Slotframes = cm.Slotframes(frame)
			ev.CommitSlot = cm.CommitSlot
			if cm.Requests == 0 {
				ev.Case = "local"
			} else {
				ev.Case = "escalated"
			}
		} else {
			ev.Case = "uncommitted" // protocol still in flight at run end
		}
		events = append(events, ev)
	}
	res := fig10Trace(cfg, cs.Sim.Records(), frame, events)
	res.SwapDrops = cs.Sim.SwapDrops
	res.Trace = cs.Tracer.Events()
	reg := cs.Bus.Metrics()
	if h, ok := reg.DistStat(obs.Key(obs.MetricEscCommitMs)); ok {
		res.EscCommit = h
	}
	converged := cs.StaticConverged && cs.Quiesced() && len(cs.Commits) == len(steps)
	health := obs.EvalHealth(reg, converged, 0, obs.DefaultBudgets(frame.Slots))
	res.Health = &health
	cs.PublishState(true, res.Health)
	return res, nil
}

// fig10Trace extracts the observed node's latency trace from the packet
// records and assembles the result.
func fig10Trace(cfg Fig10Config, records []sim.PacketRecord, frame schedule.Slotframe, events []Fig10Event) Fig10Result {
	slotSec := frame.SlotDuration.Seconds()
	var res Fig10Result
	for _, r := range records {
		if r.Task != traffic.TaskID(cfg.Node) || !r.Delivered {
			continue
		}
		lat := float64(r.Latency()) * slotSec
		res.Points = append(res.Points, stats.Point{
			X: float64(r.DeliveredAt) * slotSec,
			Y: lat,
		})
		if lat > res.MaxLatencySec {
			res.MaxLatencySec = lat
		}
	}
	res.Events = events
	table := stats.NewTable(
		fmt.Sprintf("Fig. 10 — end-to-end latency of node %d under rate steps", cfg.Node),
		"time(s)", "latency(s)")
	for _, p := range res.Points {
		table.AddRow(p.X, p.Y)
	}
	res.Table = table
	return res
}
