package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// planSweep is the centralized library path behind harp.Build and
// SetTaskRate — packing and core only, no clock, no messages: plan a
// random network of the paper's §VII shape, then raise and release every
// link's demand. A raise may escalate up the tree; a release is always
// local, so a change that speeds up one at the other's cost shows.
type planSweep struct {
	nodes, layers int
	opsPerRep     int
	reps          int
}

func (planSweep) name() string   { return "plan_sweep" }
func (planSweep) unit() string   { return "plan-and-adjust cycle" }
func (w planSweep) minReps() int { return w.reps }

// planIn is one op's inputs.
type planIn struct {
	tree   *topology.Tree
	demand *traffic.Demand
}

// planFrame is the frame the adjustment-overhead study (Fig. 12) uses: it
// fits the convergecast demand of an 81-node, 10-layer network.
var planFrame = schedule.Slotframe{Slots: 1200, Channels: 16, DataSlots: 1200, SlotDuration: 10 * time.Millisecond}

func (w planSweep) rep(r *run, i int) {
	ins := make([]planIn, w.opsPerRep)
	if !r.setup(func() error {
		for k := range ins {
			rng := vclock.NewStream(vclock.StreamSweep, r.repSeed(i, k))
			sp := r.rec.begin(spanGenerate)
			tree, err := topology.Generate(topology.GenSpec{Nodes: w.nodes, Layers: w.layers}, rng)
			r.rec.end(sp)
			if err != nil {
				return err
			}
			tasks, err := traffic.UniformEcho(tree, 1)
			if err != nil {
				return err
			}
			sp = r.rec.begin(spanCompute)
			demand, err := traffic.Compute(tree, tasks)
			r.rec.end(sp)
			if err != nil {
				return err
			}
			ins[k] = planIn{tree: tree, demand: demand}
		}
		return nil
	}) {
		return
	}
	ref := r.spanned(func() outcome { return w.pass(r, ins) })
	r.fidelityCheck(ref, w.pass(r, ins))
}

func (w planSweep) pass(r *run, ins []planIn) (out outcome) {
	rec := r.rec
	out.ok = true
	var plan *core.Plan // the last op's, kept for the live-heap sample
	for _, in := range ins {
		var adjusted, escalated, rejected, msgs int
		ok := r.op(func() (float64, error) {
			sp := rec.begin(spanNewPlan)
			p, err := core.NewPlan(in.tree, planFrame, in.demand, core.Options{})
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			plan = p
			sp = rec.begin(spanPlanBuild)
			_, err = p.BuildSchedule()
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			sp = rec.begin(spanPlanCheck)
			err = p.Validate()
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			for _, id := range in.tree.Nodes() {
				if id == topology.GatewayID {
					continue
				}
				l := topology.Link{Child: id, Direction: topology.Uplink}
				base := p.Demand(l)
				for _, cells := range [2]int{base + 1, base} {
					sp = rec.begin(spanSetDemand)
					adj, err := p.SetLinkDemand(l, cells, 1)
					rec.end(sp)
					if err != nil {
						return 0, err
					}
					switch adj.Case {
					case core.CaseRejected:
						rejected++
						continue
					case core.CasePartitionUpdate:
						escalated++
					}
					adjusted++
					msgs += adj.TotalMessages()
				}
			}
			return 1, nil
		})
		if !ok {
			out.ok = false
			continue
		}
		r.instance()
		if err := plan.Validate(); err != nil {
			r.check("plan after the cycle", err)
			out.ok = false
		}
		for _, l := range in.demand.Links() {
			if plan.Demand(l) != in.demand.Cells(l) {
				r.check("demand restored", fmt.Errorf("link %v holds %d cells, want %d", l, plan.Demand(l), in.demand.Cells(l)))
				out.ok = false
				break
			}
		}
		edge := 0
		for _, p := range plan.Partitions() {
			if e := p.Region.Slot + p.Region.Slots; p.Node == topology.GatewayID && e > edge {
				edge = e
			}
		}
		if r.vtOn() {
			r.vt.frameSlots = append(r.vt.frameSlots, float64(edge))
			if adjusted > 0 {
				r.vt.adjustMsgs = append(r.vt.adjustMsgs, float64(msgs)/float64(adjusted))
			}
		}
		if r.cfg.traced && r.measuring() {
			r.layer["core.adjustments"] += float64(adjusted + rejected)
			r.layer["core.escalated"] += float64(escalated)
			r.layer["core.rejected"] += float64(rejected)
			r.probes.replayPacking(plan)
		}
		r.hash(edge, adjusted, escalated, rejected, msgs)
		out.sig = append(out.sig, edge, msgs)
	}
	r.liveHeap()
	runtime.KeepAlive(plan)
	runtime.KeepAlive(ins)
	return out
}
