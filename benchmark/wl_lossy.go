package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// testbedLossy is the paper's testbed scenario end to end, once per op:
// deploy the 50-node testbed over a lossy CON/ACK control plane, run the
// data plane, step one node's rate 1→3 at slotframe stepAt and let the
// adjustment commit. Every layer does moderate work, and the shared layers
// run their reliability paths (retransmit timers, cancelable clock events,
// dedup), which ctrl_scale's lossless NON exchange never touches.
type testbedLossy struct {
	opsPerRep int
	stepAt    int // slotframe of the rate step
	frames    int // slotframes one scenario runs
	twinOps   int // ops of the run also checked against a lossless twin
	traceOps  int // ops a traced run repeats with cosim's own tracer on
	reps      int
}

func (testbedLossy) name() string   { return "testbed_lossy" }
func (testbedLossy) unit() string   { return "scenario" }
func (w testbedLossy) minReps() int { return w.reps }

// lossyControlPDR is the control plane's per-frame delivery ratio. A CON
// exchange is abandoned after five lost tries (frame or ACK), which leaves
// a scenario that cannot be checked; at 0.995 that is about one op in 10^8,
// while one exchange in a hundred still retransmits. The issue's 0.95 gave
// up in one scenario of 441.
const lossyControlPDR = 0.995

// lossyIn is one scenario: the stepped node, the co-simulation config
// (one echo task per node, a slack cell on the stepped node's path, as
// the Fig. 10 experiment provisions) and the per-link cells provisioned.
type lossyIn struct {
	node        topology.NodeID
	cfg         cosim.Config
	provisioned map[topology.Link]int
}

func genLossy(r *run, node topology.NodeID, seed int64) (lossyIn, error) {
	sp := r.rec.begin(spanGenerate)
	tree := topology.Testbed50()
	r.rec.end(sp)
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		return lossyIn{}, err
	}
	sp = r.rec.begin(spanCompute)
	base, err := traffic.Compute(tree, tasks)
	r.rec.end(sp)
	if err != nil {
		return lossyIn{}, err
	}
	path, err := tree.PathToGateway(node)
	if err != nil {
		return lossyIn{}, err
	}
	cells := make(map[topology.Link]int)
	for _, l := range base.Links() {
		cells[l] = base.Cells(l)
	}
	for _, hop := range path[:len(path)-1] {
		for _, d := range topology.Directions() {
			cells[topology.Link{Child: hop, Direction: d}]++
		}
	}
	return lossyIn{
		node: node,
		cfg: cosim.Config{
			Tree: tree, Frame: schedule.Testbed(), Tasks: tasks, Demand: traffic.FromCells(cells),
			PDR: 0.98, MaxRetries: 1, Seed: seed, RootGap: 2,
			Reliable: true, ControlPDR: lossyControlPDR, ControlFaultSeed: seed + 995, TolerateStaticLoss: true,
		},
		provisioned: cells,
	}, nil
}

// fresh returns the scenario with task set and provisioning of its own:
// running a scenario changes both.
func (in lossyIn) fresh() lossyIn {
	in.cfg.Tasks = in.cfg.Tasks.Clone()
	cells := make(map[topology.Link]int, len(in.provisioned))
	for l, c := range in.provisioned {
		cells[l] = c
	}
	in.provisioned = cells
	return in
}

// step raises the node's task rate and returns the demand requests that
// follow: every link the new rate under-provisions asks for what it needs
// plus one cell to drain the backlog.
func (in lossyIn) step() (func(*agent.Fleet) error, error) {
	if err := in.cfg.Tasks.SetRate(traffic.TaskID(in.node), 3); err != nil {
		return nil, err
	}
	need, err := traffic.Compute(in.cfg.Tree, in.cfg.Tasks)
	if err != nil {
		return nil, err
	}
	return func(f *agent.Fleet) error {
		for _, l := range need.Links() {
			if need.Cells(l) <= in.provisioned[l] {
				continue
			}
			if err := f.RequestLinkDemand(l, need.Cells(l)+1); err != nil {
				return err
			}
			in.provisioned[l] = need.Cells(l) + 1
		}
		return nil
	}, nil
}

func (w testbedLossy) rep(r *run, i int) {
	ids := topology.Testbed50().Nodes()[1:]
	ins := make([]lossyIn, w.opsPerRep)
	if !r.setup(func() (err error) {
		for k := range ins {
			n := i*w.opsPerRep + k
			if ins[k], err = genLossy(r, ids[n%len(ids)], r.repSeed(i, k)); err != nil {
				return err
			}
		}
		return nil
	}) {
		return
	}
	r.probes.shards = 1
	for k, in := range ins {
		ref := r.spanned(func() outcome { return w.composed(r, in.fresh()) })
		got := w.scenario(r, in.fresh())
		r.fidelityCheck(ref, got)
		n := i*w.opsPerRep + k
		if n < w.twinOps && got.ok {
			if twin, err := w.lossless(in.fresh()); err != nil {
				r.check("lossless twin", err)
			} else if !sameSchedule(twin, got.sched) {
				r.check("lossless twin", errors.New("final schedule differs from the lossless run of the same seed"))
			}
		}
		if r.cfg.traced && n < w.traceOps && got.ok {
			w.traceOverhead(r, in.fresh(), r.meas.opMS[len(r.meas.opMS)-1])
		}
	}
}

// drive runs one scenario on the co-simulator. r is nil for the untimed
// repeats (lossless twin, tracer-on run), which leave no samples.
func (w testbedLossy) drive(r *run, in lossyIn) (*cosim.CoSim, error) {
	newCoSim, run := cosim.New, (*cosim.CoSim).Run
	if r != nil {
		newCoSim, run = r.newCoSim, r.runCoSim
	}
	cs, err := newCoSim(in.cfg)
	if err != nil {
		return nil, err
	}
	var stepErr error
	cs.At(w.stepAt*in.cfg.Frame.Slots, func(c *cosim.CoSim) {
		if r != nil {
			r.tally(c.Bus) // the static phase's counters, before Adjust clears them
		}
		if stepErr = c.Sim.SetTaskRate(traffic.TaskID(in.node), 3); stepErr != nil {
			return
		}
		var request func(*agent.Fleet) error
		if request, stepErr = in.step(); stepErr == nil {
			stepErr = c.Adjust(request)
		}
	})
	if err := run(cs, w.frames*in.cfg.Frame.Slots); err != nil {
		return nil, err
	}
	return cs, stepErr
}

// lossless returns the final schedule of the scenario's lossless twin.
func (w testbedLossy) lossless(in lossyIn) (*schedule.Schedule, error) {
	in.cfg.ControlPDR = 0
	var cs *cosim.CoSim
	if err := protect(func() (err error) { cs, err = w.drive(nil, in); return }); err != nil {
		return nil, err
	}
	if !cs.Quiesced() {
		return nil, errors.New("lossless twin did not commit")
	}
	return cs.Fleet.BuildSchedule()
}

// scenario is the workload's op: one scenario, timed, then checked.
func (w testbedLossy) scenario(r *run, in lossyIn) (out outcome) {
	var cs *cosim.CoSim
	if !r.op(func() (_ float64, err error) {
		cs, err = w.drive(r, in)
		return 1, err
	}) {
		return out
	}
	r.liveHeap()
	r.tally(cs.Bus)
	r.probes.dispatched += cs.Clock.Dispatched()
	r.probes.observeClock(cs.Clock)
	var err error
	switch {
	case !cs.StaticConverged:
		err = errors.New("static phase did not converge")
	case len(cs.Commits) != 1 || !cs.Quiesced():
		err = fmt.Errorf("%d commits, quiesced=%v", len(cs.Commits), cs.Quiesced())
	case cs.Bus.Faults().GiveUps > 0:
		err = fmt.Errorf("%d exchanges given up", cs.Bus.Faults().GiveUps)
	default:
		err = invariant.CheckFleet(cs.Fleet, nil)
	}
	if !r.check("scenario", err) {
		return out
	}
	sched, err := cs.Fleet.BuildSchedule()
	if !r.check("final schedule", err) {
		return out
	}
	cm := cs.Commits[0]
	recs := cs.Sim.Records()
	delivered := 0
	for _, rc := range recs {
		if rc.Delivered {
			delivered++
			if r.vtOn() {
				r.vt.latency[rc.Latency()]++
			}
		}
	}
	if r.vtOn() {
		r.vt.commitSlots = append(r.vt.commitSlots, float64(cm.CommitSlot-cm.TriggerSlot))
		r.vt.adjustMsgs = append(r.vt.adjustMsgs, float64(cm.Messages))
		r.vt.released += len(recs)
		r.vt.delivered += delivered
	}
	r.tallyMAC(cs.Sim, len(recs))
	r.layer["agent.rejections"] += float64(cs.Fleet.Rejections())
	r.hash(cm.CommitSlot-cm.TriggerSlot, cm.Messages, len(recs), delivered)
	r.hashSchedule(sched)
	r.snapshotProbe(cs.Bus.Metrics())
	out.ok, out.sched, out.sig = true, sched, []int{cm.Messages}
	return out
}

// composed runs the scenario on the harness's own composition of the
// layers, one span per call.
func (w testbedLossy) composed(r *run, in lossyIn) (out outcome) {
	frame := in.cfg.Frame
	var c *composed
	if !r.op(func() (float64, error) {
		var err error
		if c, err = compose(r, in.cfg, false); err != nil {
			return 0, err
		}
		if err := c.runMAC(w.stepAt * frame.Slots); err != nil {
			return 0, err
		}
		if err := c.mac.SetTaskRate(traffic.TaskID(in.node), 3); err != nil {
			return 0, err
		}
		request, err := in.step()
		if err != nil {
			return 0, err
		}
		msgs, err := c.adjust(request)
		if err != nil {
			return 0, err
		}
		out.sig = []int{msgs}
		return 1, c.runMAC((w.frames - w.stepAt) * frame.Slots)
	}) {
		return out
	}
	r.tallyMAC(c.mac, 0)
	out.ok, out.sched = true, c.sched
	return out
}

// traceOverhead repeats a scenario with cosim's own event tracer on and
// records both walls: the observer's cost as the ratio ROADMAP wants gated.
func (w testbedLossy) traceOverhead(r *run, in lossyIn, offMS float64) {
	in.cfg.Trace = true
	var cs *cosim.CoSim
	t0 := time.Now()
	if protect(func() (err error) { cs, err = w.drive(nil, in); return }) != nil {
		return // the timed twin of this op already reported what is wrong
	}
	p := &r.probes
	p.traceOnMS = append(p.traceOnMS, float64(time.Since(t0))/float64(time.Millisecond))
	p.traceOffMS = append(p.traceOffMS, offMS)
	p.obsEvents += len(cs.Tracer.Events())
}
