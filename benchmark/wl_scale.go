package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// scaleSpec is the shape of the large sparse fleets ctrl_scale and
// keepalive_fleet run on — the scale experiment's: a GenerateScale tree, a
// 997-slot frame, a few echo tasks at depth and zero demand elsewhere.
type scaleSpec struct {
	nodes, layers, fanout, tasks int
}

// scaleIn is one generated fleet, ready for cosim.New or compose.
type scaleIn struct {
	cfg     cosim.Config
	sources []topology.NodeID
}

// outcome is what a pass leaves behind for the fidelity check: the spanned
// composition and its unspanned twin must agree on it exactly.
type outcome struct {
	ok    bool
	sig   []int // message counts, record counts, event counts
	sched *schedule.Schedule
}

func genScale(r *run, spec scaleSpec, seed int64) (scaleIn, error) {
	rng := vclock.NewStream(vclock.StreamScale, seed)
	sp := r.rec.begin(spanGenerate)
	tree, err := topology.GenerateScale(topology.GenSpec{
		Nodes: spec.nodes, Layers: spec.layers, MaxChildren: spec.fanout,
	}, rng)
	r.rec.end(sp)
	if err != nil {
		return scaleIn{}, err
	}
	frame := schedule.Slotframe{Slots: 997, Channels: 16, DataSlots: 960, SlotDuration: 10 * time.Millisecond}

	nodes := tree.Nodes()
	tasks := traffic.NewSet()
	var sources []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	for id := traffic.TaskID(0); len(sources) < spec.tasks && len(seen) < len(nodes)-1; id++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		if seen[src] {
			continue
		}
		seen[src] = true
		sources = append(sources, src)
		if err := tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}); err != nil {
			return scaleIn{}, err
		}
	}
	sp = r.rec.begin(spanCompute)
	demand, err := traffic.Compute(tree, tasks)
	r.rec.end(sp)
	if err != nil {
		return scaleIn{}, err
	}
	return scaleIn{
		cfg: cosim.Config{
			Tree: tree, Frame: frame, Tasks: tasks, Demand: demand,
			PDR: 1, Seed: seed, RootGap: 2,
		},
		sources: sources,
	}, nil
}

// ctrlScale is the paper's scalability story: deploy a 50k-node fleet
// (static partition allocation over a lossless NON control plane on the
// sharded clock), then commit rounds of concurrent demand raises.
type ctrlScale struct {
	spec         scaleSpec
	opsPerRep    int
	raisesPerOp  int
	settleFrames int
	reps         int
}

func (ctrlScale) name() string   { return "ctrl_scale" }
func (ctrlScale) unit() string   { return "committed adjustment" }
func (w ctrlScale) minReps() int { return w.reps }

func (w ctrlScale) rep(r *run, i int) {
	var in scaleIn
	if !r.setup(func() (err error) {
		in, err = genScale(r, w.spec, r.repSeed(i, 0))
		in.cfg.Shards = cosim.AutoShards(in.cfg.Tree)
		return err
	}) {
		return
	}
	r.probes.shards = in.cfg.Shards
	ref := r.spanned(func() outcome { return w.composed(r, in, i == 0) })
	r.fidelityCheck(ref, w.measured(r, in))
}

// raise issues op k's concurrent demand raises: the next raisesPerOp task
// sources, each one cell above what it holds.
func (w ctrlScale) raise(f *agent.Fleet, in scaleIn, k int) error {
	for j := 0; j < w.raisesPerOp; j++ {
		n := k*w.raisesPerOp + j
		l := topology.Link{Child: in.sources[n%len(in.sources)], Direction: topology.Uplink}
		if err := f.RequestLinkDemand(l, 2+n/len(in.sources)); err != nil {
			return err
		}
	}
	return nil
}

func (w ctrlScale) measured(r *run, in scaleIn) (out outcome) {
	var cs *cosim.CoSim
	if !r.deploy(func() (err error) { cs, err = r.newCoSim(in.cfg); return }) {
		return
	}
	r.liveHeap()
	slots := w.settleFrames * in.cfg.Frame.Slots
	for k := 0; k < w.opsPerRep; k++ {
		r.tally(cs.Bus)
		d0 := cs.Clock.Dispatched()
		ok := r.op(func() (float64, error) {
			if err := cs.Adjust(func(f *agent.Fleet) error { return w.raise(f, in, k) }); err != nil {
				return 0, err
			}
			if err := r.runCoSim(cs, slots); err != nil {
				return 0, err
			}
			if !cs.Quiesced() || len(cs.Commits) != k+1 {
				return 0, fmt.Errorf("adjustment %d not committed after %d slotframes", k, w.settleFrames)
			}
			return 1, nil
		})
		if !ok {
			return // the instance is in an unknown state: drop the rest of the rep
		}
		r.probes.dispatched += cs.Clock.Dispatched() - d0
		r.probes.observeClock(cs.Clock)
		cm := cs.Commits[k]
		if r.vtOn() {
			r.vt.commitSlots = append(r.vt.commitSlots, float64(cm.CommitSlot-cm.TriggerSlot))
			r.vt.adjustMsgs = append(r.vt.adjustMsgs, float64(cm.Messages))
		}
		r.hash(cm.CommitSlot-cm.TriggerSlot, cm.Messages, cm.Requests, cm.ScheduleMessages)
		out.sig = append(out.sig, cm.Messages)
	}
	r.tally(cs.Bus)
	r.tallyMAC(cs.Sim, len(cs.Sim.Records()))
	if n := cs.Fleet.Rejections(); n > 0 {
		r.check("rejections", fmt.Errorf("%d adjustments rejected", n))
	}
	r.layer["agent.rejections"] += float64(cs.Fleet.Rejections())
	if !r.check("invariant.CheckFleet", invariant.CheckFleet(cs.Fleet, nil)) {
		return
	}
	sched, err := cs.Fleet.BuildSchedule()
	if !r.check("final schedule", err) {
		return
	}
	r.hashSchedule(sched)
	r.snapshotProbe(cs.Bus.Metrics())
	out.ok, out.sched = true, sched
	return out
}

func (w ctrlScale) composed(r *run, in scaleIn, probeHeap bool) (out outcome) {
	var c *composed
	if !r.deploy(func() (err error) { c, err = compose(r, in.cfg, probeHeap); return }) {
		return
	}
	for k := 0; k < w.opsPerRep; k++ {
		ok := r.op(func() (float64, error) {
			msgs, err := c.adjust(func(f *agent.Fleet) error { return w.raise(f, in, k) })
			if err != nil {
				return 0, err
			}
			out.sig = append(out.sig, msgs)
			return 1, c.runMAC(w.settleFrames * in.cfg.Frame.Slots)
		})
		if !ok {
			return
		}
	}
	r.tallyMAC(c.mac, 0)
	out.ok, out.sched = true, c.sched
	return out
}

// keepaliveFleet is the smallest-message, highest-rate traffic the system
// carries: with the failure detector on, every node probes its parent and
// children once a slotframe. Nothing fails and nothing is adjusted, so the
// cost is the clock, the bus and the codec, per event.
type keepaliveFleet struct {
	spec      scaleSpec
	warmup    int // slotframes run before the first timed op
	opsPerRep int
	reps      int
}

func (keepaliveFleet) name() string   { return "keepalive_fleet" }
func (keepaliveFleet) unit() string   { return "dispatched event" }
func (w keepaliveFleet) minReps() int { return w.reps }

func (w keepaliveFleet) detector(in scaleIn) agent.DetectorConfig {
	// The repository's default thresholds, without the adjustment watchdog
	// (nothing is adjusted). The issue's suspect-after-2 raises false
	// suspicions: a jittered sweep period (up to 1.1 slotframes) plus a
	// management-cell latency (up to 1) can exceed two slotframes of silence.
	sf := float64(in.cfg.Frame.Slots)
	return agent.DetectorConfig{
		Interval: sf, SuspectAfter: 3 * sf, DeadAfter: 6 * sf, Seed: in.cfg.Seed,
		// No node fails, so the detector never asks for post-move demands.
		Demand: func(_, _ topology.NodeID) *traffic.Demand { return in.cfg.Demand },
	}
}

func (w keepaliveFleet) rep(r *run, i int) {
	var in scaleIn
	if !r.setup(func() (err error) { in, err = genScale(r, w.spec, r.repSeed(i, 0)); return }) {
		return
	}
	r.probes.shards = 1
	ref := r.spanned(func() outcome { return w.composed(r, in, i == 0) })
	r.fidelityCheck(ref, w.measured(r, in))
}

func (w keepaliveFleet) measured(r *run, in scaleIn) (out outcome) {
	var cs *cosim.CoSim
	var det *agent.Detector
	if !r.setup(func() (err error) {
		if cs, err = r.newCoSim(in.cfg); err != nil {
			return err
		}
		if det, err = cs.EnableSelfHealing(w.detector(in), in.cfg.Tasks); err != nil {
			return err
		}
		return cs.RunSlotframes(w.warmup)
	}) {
		return
	}
	r.liveHeap()
	for k := 0; k < w.opsPerRep; k++ {
		d0 := cs.Clock.Dispatched()
		ok := r.op(func() (float64, error) {
			err := r.runCoSim(cs, in.cfg.Frame.Slots)
			return float64(cs.Clock.Dispatched() - d0), err
		})
		if !ok {
			return
		}
		r.probes.dispatched += cs.Clock.Dispatched() - d0
		r.probes.observeClock(cs.Clock)
	}
	m := cs.Bus.Metrics()
	keepalives := int(m.Counter(obs.Key(obs.MetricKeepalives)))
	r.tally(cs.Bus)
	r.tallyMAC(cs.Sim, len(cs.Sim.Records()))
	r.layer["agent.keepalives"] += float64(keepalives)
	verdicts := int(m.Counter(obs.Key(obs.MetricSuspects))) + len(det.Deaths)
	switch {
	case det.Err() != nil:
		r.check("detector", det.Err())
	case verdicts > 0:
		r.check("detector", fmt.Errorf("%d suspect/dead verdicts with no fault injected", verdicts))
	case keepalives == 0:
		r.check("detector", errors.New("no keepalive was sent"))
	default:
		out.ok = true
	}
	r.hash(keepalives, int(cs.Clock.Dispatched()), cs.Clock.Pending())
	r.snapshotProbe(m)
	out.sig = []int{keepalives, int(cs.Clock.Dispatched())}
	return out
}

func (w keepaliveFleet) composed(r *run, in scaleIn, probeHeap bool) (out outcome) {
	var c *composed
	if !r.setup(func() (err error) {
		if c, err = compose(r, in.cfg, probeHeap); err != nil {
			return err
		}
		cfg := w.detector(in)
		cfg.Metrics = c.bus.Metrics()
		sp := r.rec.begin(spanDetector)
		det, err := agent.NewDetector(c.fleet, c.net, c.clock, cfg)
		if err == nil {
			det.Start()
		}
		r.rec.end(sp)
		if err != nil {
			return err
		}
		return c.runMAC(w.warmup * in.cfg.Frame.Slots)
	}) {
		return
	}
	for k := 0; k < w.opsPerRep; k++ {
		d0 := c.clock.Dispatched()
		if !r.op(func() (float64, error) {
			err := c.runMAC(in.cfg.Frame.Slots)
			return float64(c.clock.Dispatched() - d0), err
		}) {
			return
		}
	}
	r.tallyMAC(c.mac, 0)
	out.ok = true
	out.sig = []int{int(c.bus.Metrics().Counter(obs.Key(obs.MetricKeepalives))), int(c.clock.Dispatched())}
	return out
}
