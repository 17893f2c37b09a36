package main

import (
	"fmt"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// macDense runs the slot-accurate MAC alone on the paper's 50-node testbed
// with every node reporting once a slotframe over a lossy radio: nearly
// every slot executes, so sim's step/transmit path is the whole cost and
// no control-plane layer runs at all.
type macDense struct {
	framesPerOp int // slotframes one op simulates
	opsPerRep   int
	reps        int
}

func (macDense) name() string   { return "mac_dense" }
func (macDense) unit() string   { return "simulated slot" }
func (w macDense) minReps() int { return w.reps }

// macIn is one instance's inputs: the schedule a centralized plan with one
// spare cell per link yields.
type macIn struct {
	tree  *topology.Tree
	frame schedule.Slotframe
	tasks *traffic.Set
	sched *schedule.Schedule
	seed  int64
}

func (w macDense) rep(r *run, i int) {
	var in macIn
	if !r.setup(func() (err error) { in, err = genMAC(r, r.repSeed(i, 0)); return }) {
		return
	}
	r.probes.shards = 1
	ref := r.spanned(func() outcome { return w.pass(r, in) })
	r.fidelityCheck(ref, w.pass(r, in))
}

func genMAC(r *run, seed int64) (macIn, error) {
	sp := r.rec.begin(spanGenerate)
	tree := topology.Testbed50()
	r.rec.end(sp)
	frame := schedule.Testbed()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		return macIn{}, err
	}
	sp = r.rec.begin(spanCompute)
	demand, err := traffic.Compute(tree, tasks)
	r.rec.end(sp)
	if err != nil {
		return macIn{}, err
	}
	cells := make(map[topology.Link]int)
	rates := make(map[topology.Link]float64)
	for _, l := range demand.Links() {
		cells[l] = demand.Cells(l) + 1
		rates[l] = 1
	}
	sp = r.rec.begin(spanNewPlan)
	plan, err := core.NewPlanFromLinkDemand(tree, frame, cells, rates, core.Options{})
	r.rec.end(sp)
	if err != nil {
		return macIn{}, err
	}
	sp = r.rec.begin(spanPlanBuild)
	sched, err := plan.BuildSchedule()
	r.rec.end(sp)
	if err != nil {
		return macIn{}, err
	}
	if err := sched.Validate(tree); err != nil {
		return macIn{}, err
	}
	return macIn{tree: tree, frame: frame, tasks: tasks, sched: sched, seed: seed}, nil
}

// pass builds the simulator, warms it up for one op's worth of slotframes
// and times the ops. It serves as the spanned pass and as its twin: with
// the recorder off the spans cost a nil check.
func (w macDense) pass(r *run, in macIn) (out outcome) {
	var mac *sim.Simulator
	if !r.setup(func() (err error) {
		sp := r.rec.begin(spanSimNew)
		mac, err = sim.New(sim.Config{
			Tree: in.tree, Frame: in.frame, Tasks: in.tasks,
			PDR: 0.8, MaxRetries: 3, Seed: in.seed,
		})
		r.rec.end(sp)
		if err != nil {
			return err
		}
		r.instance()
		sp = r.rec.begin(spanSetSchedule)
		mac.SetSchedule(in.sched)
		r.rec.end(sp)
		return mac.RunSlotframes(w.framesPerOp)
	}) {
		return
	}
	r.liveHeap()
	slots := w.framesPerOp * in.frame.Slots
	for k := 0; k < w.opsPerRep; k++ {
		if !r.op(func() (float64, error) {
			sp := r.rec.begin(spanSimRun)
			err := mac.RunSlotframes(w.framesPerOp)
			r.rec.end(sp)
			return float64(slots), err
		}) {
			return
		}
		r.probes.observeClock(mac.Clock())
	}
	recs := mac.Records()
	delivered, dropped := 0, 0
	for _, rc := range recs {
		switch {
		case rc.Delivered:
			delivered++
			if r.vtOn() {
				r.vt.latency[rc.Latency()]++
			}
		case rc.Dropped:
			dropped++
		}
	}
	if r.vtOn() {
		r.vt.released += len(recs)
		r.vt.delivered += delivered
	}
	r.tallyMAC(mac, len(recs))
	r.hash(len(recs), delivered, dropped, mac.Collisions, mac.LossFailures, mac.Expired)
	pending := mac.PendingPackets()
	if len(recs) != delivered+dropped+pending {
		r.check("packet accounting", fmt.Errorf("released %d != delivered %d + dropped %d + pending %d",
			len(recs), delivered, dropped, pending))
		return
	}
	out.ok = true
	out.sig = []int{len(recs), delivered, dropped}
	return out
}
