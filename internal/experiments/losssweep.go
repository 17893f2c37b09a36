package experiments

import (
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/parallel"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// LossSweepConfig parameterises the convergence-under-loss study: the
// Fig. 10 scenario (testbed network, a rate step at the observed node that
// forces a multi-hop partition adjustment) repeated across control-plane
// packet delivery ratios, with the control messages carried over CoAP CON
// exchanges. Retransmissions, duplicate suppression and the measured
// adjustment-convergence window quantify what reliability costs — and
// whether the fleet still lands on the lossless schedule.
type LossSweepConfig struct {
	// PDRs are the control-plane delivery ratios to sweep (1.0 first, as
	// the lossless reference the other points are compared against).
	PDRs []float64
	// Node is the observed node whose rate steps (paper: Node 15).
	Node topology.NodeID
	// StepRate is the raised rate; StepAt the step time in slotframes.
	StepRate float64
	StepAt   int
	// TotalSlotframes is the run length (long enough for the slowest
	// retransmission backoff to drain).
	TotalSlotframes int
	// DataPDR is the data plane's link PDR (loss under study is control-
	// plane only, so the MAC stays clean by default).
	DataPDR float64
	Seed    int64
	// Trace enables protocol tracing; per-point traces land in
	// LossSweepResult.Trace concatenated in PDR order, so the bytes are
	// independent of the worker count.
	Trace bool
	// Inspect, when non-nil, receives live telemetry snapshots from every
	// point of the sweep. Points run in parallel, so the published state
	// is whichever point wrote last — each snapshot is still internally
	// consistent.
	Inspect *obs.Inspector
}

// DefaultLossSweep returns the committed baseline scenario.
func DefaultLossSweep() LossSweepConfig {
	return LossSweepConfig{
		PDRs:            []float64{1.0, 0.95, 0.9, 0.8},
		Node:            15,
		StepRate:        3,
		StepAt:          10,
		TotalSlotframes: 150,
		DataPDR:         1,
		Seed:            5,
	}
}

// LossSweepPoint is one PDR point's outcome.
type LossSweepPoint struct {
	PDR float64
	// StaticConverged reports whether the static allocation phase produced
	// a valid complete schedule under this loss rate.
	StaticConverged bool
	// StaticRetransmissions and StaticDropped count the static phase's
	// recovery work.
	StaticRetransmissions int
	StaticDropped         int
	// Committed reports whether the rate step's adjustment committed
	// within the run.
	Committed bool
	// ConvergenceSlotframes is the measured disruption window of the
	// adjustment in whole slotframes (-1 if it never committed).
	ConvergenceSlotframes int
	// Retransmissions, Dropped, DuplicatesSuppressed and GiveUps cover the
	// adjustment exchange.
	Retransmissions      int
	Dropped              int
	DuplicatesSuppressed int
	GiveUps              int
	// Messages is the adjustment's delivered protocol messages (ACKs not
	// counted).
	Messages int
	// MatchesLossless reports whether the final schedule equals the
	// lossless sweep point's final schedule cell for cell.
	MatchesLossless bool
	// ConRtt is the point's CON send→ACK round-trip distribution in
	// milli-slots (run-cumulative: static phase plus the adjustment).
	ConRtt obs.Hist
}

// LossSweepResult carries the sweep.
type LossSweepResult struct {
	Points []LossSweepPoint
	Table  *stats.Table
	// Trace is the concatenated per-point protocol trace (with
	// LossSweepConfig.Trace set; nil otherwise). Points appear in PDR
	// order regardless of the worker count.
	Trace []obs.Event
	// ConRtt is the per-point RTT distributions merged across the sweep
	// (merge order cannot change the buckets: Hist.Merge is commutative).
	ConRtt obs.Hist
}

// lossSweepRun drives one PDR point and returns the point plus the final
// schedule for cross-point comparison, and the point's protocol trace.
func lossSweepRun(cfg LossSweepConfig, pdr float64) (LossSweepPoint, *schedule.Schedule, []obs.Event, error) {
	tree := topology.Testbed50()
	frame := TestbedSlotframe()
	tasks, inflated, err := fig10Provisioning(tree, cfg.Node)
	if err != nil {
		return LossSweepPoint{}, nil, nil, err
	}
	cs, err := cosim.New(cosim.Config{
		Tree:               tree,
		Frame:              frame,
		Tasks:              tasks,
		Demand:             traffic.FromCells(inflated),
		PDR:                cfg.DataPDR,
		Seed:               cfg.Seed,
		RootGap:            2,
		ControlPDR:         pdr,
		ControlFaultSeed:   cfg.Seed + int64(pdr*1000),
		Reliable:           true,
		TolerateStaticLoss: true,
		Trace:              cfg.Trace,
	})
	if err != nil {
		return LossSweepPoint{}, nil, nil, err
	}
	if cfg.Inspect != nil {
		cs.AttachInspector(cfg.Inspect)
	}
	static := cs.Bus.Faults()
	pt := LossSweepPoint{
		PDR:                   pdr,
		StaticConverged:       cs.StaticConverged,
		StaticRetransmissions: static.Retransmissions,
		StaticDropped:         static.Dropped,
		ConvergenceSlotframes: -1,
	}

	provisioned := inflated
	cs.At(cfg.StepAt*frame.Slots, func(c *cosim.CoSim) {
		_ = c.Sim.SetTaskRate(traffic.TaskID(cfg.Node), cfg.StepRate) //harplint:allow errcheck rate steps target the sim best-effort; the checked SetRate below is authoritative
		if err := tasks.SetRate(traffic.TaskID(cfg.Node), cfg.StepRate); err != nil {
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
	if err := cs.RunSlotframes(cfg.TotalSlotframes); err != nil {
		return LossSweepPoint{}, nil, nil, err
	}

	// Adjust reset the counters, so Faults now covers the adjustment alone.
	dynamic := cs.Bus.Faults()
	pt.Retransmissions = dynamic.Retransmissions
	pt.Dropped = dynamic.Dropped
	pt.DuplicatesSuppressed = dynamic.DuplicatesSuppressed
	pt.GiveUps = dynamic.GiveUps
	if len(cs.Commits) > 0 {
		cm := cs.Commits[len(cs.Commits)-1]
		pt.Committed = true
		pt.ConvergenceSlotframes = cm.Slotframes(frame)
		pt.Messages = cm.Messages
	}
	if h, ok := cs.Bus.Metrics().DistStat(obs.Key(obs.MetricConRttMs)); ok {
		pt.ConRtt = h
	}
	cs.PublishState(true, nil)
	sched, err := cs.Fleet.BuildSchedule()
	if err != nil {
		// A non-converged endpoint has no comparable schedule; the point
		// still reports its loss counters.
		return pt, nil, cs.Tracer.Events(), nil
	}
	return pt, sched, cs.Tracer.Events(), nil
}

// LossSweep runs the sweep, one co-simulation per PDR point (parallel over
// points; each point is internally deterministic, so worker count cannot
// change any result).
func LossSweep(cfg LossSweepConfig) (LossSweepResult, error) {
	if len(cfg.PDRs) == 0 {
		return LossSweepResult{}, fmt.Errorf("experiments: empty PDR sweep")
	}
	type outcome struct {
		pt    LossSweepPoint
		sched *schedule.Schedule
		trace []obs.Event
	}
	outs, err := parallel.Map(len(cfg.PDRs), func(i int) (outcome, error) {
		pt, sched, trace, err := lossSweepRun(cfg, cfg.PDRs[i])
		return outcome{pt: pt, sched: sched, trace: trace}, err
	})
	if err != nil {
		return LossSweepResult{}, err
	}

	// The lossless point (PDR 1.0, by convention first) is the reference
	// schedule the lossy endpoints must reproduce.
	var ref *schedule.Schedule
	for i, o := range outs {
		if cfg.PDRs[i] == 1.0 {
			ref = o.sched
		}
	}
	res := LossSweepResult{}
	table := stats.NewTable(
		fmt.Sprintf("Convergence under control-plane loss — node %d rate step to %.1f pkt/sf", cfg.Node, cfg.StepRate),
		"ctrl PDR", "static ok", "retx", "dropped", "dup suppr", "give-ups", "conv(sf)", "matches lossless")
	for _, o := range outs {
		pt := o.pt
		pt.MatchesLossless = ref != nil && o.sched != nil && schedulesEqual(o.sched, ref)
		res.Points = append(res.Points, pt)
		res.ConRtt.Merge(&pt.ConRtt)
		res.Trace = append(res.Trace, o.trace...)
		table.AddRow(
			fmt.Sprintf("%.2f", pt.PDR),
			fmt.Sprintf("%t", pt.StaticConverged),
			pt.StaticRetransmissions+pt.Retransmissions,
			pt.StaticDropped+pt.Dropped,
			pt.DuplicatesSuppressed,
			pt.GiveUps,
			pt.ConvergenceSlotframes,
			fmt.Sprintf("%t", pt.MatchesLossless),
		)
	}
	res.Table = table
	return res, nil
}

// schedulesEqual compares two schedules cell for cell.
func schedulesEqual(a, b *schedule.Schedule) bool {
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		return false
	}
	for _, l := range la {
		ca, cb := a.Cells(l), b.Cells(l)
		if len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}
