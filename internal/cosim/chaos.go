package cosim

import (
	"fmt"
	"sort"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// ChaosConfig scripts one storm.
type ChaosConfig struct {
	// Seed drives the chaos stream (victim selection, crash times, flap
	// placement) — independent of every other stream in the run.
	Seed int64
	// CrashFraction of the non-gateway population is crashed.
	CrashFraction float64
	// PermanentFraction of the victims never restart; their subtrees must
	// be rescued by adoption alone.
	PermanentFraction float64
	// StartSlot is the first slot of the storm; individual crashes scatter
	// uniformly over [StartSlot, StartSlot+SpreadSlots).
	StartSlot   int
	SpreadSlots int
	// DowntimeSlots is how long a recovering victim stays down. It must
	// exceed the detector's DeadAfter or the outage is (correctly) ridden
	// out without ever being declared.
	DowntimeSlots int
	// LinkFlaps takes that many surviving nodes' parent links down for
	// FlapSlots each, scattered over the same window — crosstalk for the
	// detector: flaps shorter than DeadAfter must not kill anyone.
	LinkFlaps int
	FlapSlots int
}

// flap is one scripted link outage; the pair is resolved at down time
// (the node's parent may have changed by then) and reused to heal.
type flap struct {
	node   topology.NodeID
	parent topology.NodeID
}

// Chaos is deterministic fault scripting for self-healing runs: it draws
// a crash storm, restarts and link flaps from the dedicated
// vclock.StreamChaos RNG stream and plants them as virtual-time events on
// the co-simulation — the failure detector then has to *discover* every
// outage from missing keepalives (Bus.Crash is silent) and heal the
// hierarchy while the storm is still raging. Because every draw comes
// from a named stream and every event rides the shared clock, a chaos run
// is bit-for-bit reproducible at any worker or shard count.
type Chaos struct {
	cs  *CoSim
	det *agent.Detector
	cfg ChaosConfig

	// Victims are the crashed nodes in crash order; Permanent marks the
	// subset that never restarts. CrashSlot records each victim's scripted
	// outage start in simulator slots; crashClock records the virtual-clock
	// time the crash event actually fired (the clock also carries the
	// static phase, so detector timestamps live on it, not on sim slots).
	Victims    []topology.NodeID
	Permanent  map[topology.NodeID]bool
	CrashSlot  map[topology.NodeID]int
	crashClock map[topology.NodeID]float64

	flaps        []*flap
	availSamples int
	availOK      int
}

// NewChaos draws the storm and plants its events. Call after
// EnableSelfHealing, before driving the run; the first event fires at
// cfg.StartSlot, which must still be in the future.
func NewChaos(cs *CoSim, det *agent.Detector, cfg ChaosConfig) (*Chaos, error) {
	if cfg.CrashFraction < 0 || cfg.CrashFraction > 1 ||
		cfg.PermanentFraction < 0 || cfg.PermanentFraction > 1 {
		return nil, fmt.Errorf("cosim: chaos fractions out of [0,1]")
	}
	if cfg.SpreadSlots <= 0 {
		cfg.SpreadSlots = 1
	}
	rng := vclock.NewStream(vclock.StreamChaos, cfg.Seed)
	ch := &Chaos{
		cs: cs, det: det, cfg: cfg,
		Permanent:  make(map[topology.NodeID]bool),
		CrashSlot:  make(map[topology.NodeID]int),
		crashClock: make(map[topology.NodeID]float64),
	}

	var eligible []topology.NodeID
	for _, id := range cs.Fleet.Tree.Nodes() {
		if id != topology.GatewayID {
			eligible = append(eligible, id)
		}
	}
	perm := rng.Perm(len(eligible))
	nVictims := int(cfg.CrashFraction * float64(len(eligible)))
	nPermanent := int(cfg.PermanentFraction * float64(nVictims))
	for k := 0; k < nVictims; k++ {
		v := eligible[perm[k]]
		ch.Victims = append(ch.Victims, v)
		if k < nPermanent {
			ch.Permanent[v] = true
		}
		crashAt := cfg.StartSlot + rng.Intn(cfg.SpreadSlots)
		ch.CrashSlot[v] = crashAt
		victim := v
		cs.At(crashAt, func(cs *CoSim) {
			ch.crashClock[victim] = cs.Clock.Now()
			cs.Bus.Crash(victim)
		})
		if !ch.Permanent[v] {
			// Only the transport restarts here: the protocol-level
			// readmission must be discovered by the detector.
			cs.At(crashAt+cfg.DowntimeSlots, func(cs *CoSim) { cs.Bus.Restart(victim) })
		}
	}

	// Flap surviving nodes' parent links. Survivors follow the victims in
	// the same permutation, so flaps and crashes never collide.
	nFlaps := cfg.LinkFlaps
	if max := len(eligible) - nVictims; nFlaps > max {
		nFlaps = max
	}
	for k := 0; k < nFlaps; k++ {
		node := eligible[perm[nVictims+k]]
		fl := &flap{node: node}
		ch.flaps = append(ch.flaps, fl)
		downAt := cfg.StartSlot + rng.Intn(cfg.SpreadSlots)
		cs.At(downAt, func(cs *CoSim) {
			parent, err := cs.Fleet.Tree.Parent(fl.node)
			if err != nil || parent == topology.None {
				return
			}
			fl.parent = parent
			cs.Bus.SetLinkDown(fl.node, parent)
		})
		cs.At(downAt+cfg.FlapSlots, func(cs *CoSim) {
			if fl.parent != topology.None {
				cs.Bus.SetLinkUp(fl.node, fl.parent)
			}
		})
	}
	return ch, nil
}

// Run drives the co-simulation through the storm for the given number of
// slotframes, sampling schedule availability at every slotframe boundary:
// the fraction of boundaries at which the fleet's assembled schedule
// passes validation is the run's availability.
func (c *Chaos) Run(slotframes int) error {
	frame := c.cs.frame.Slots
	start := c.cs.Sim.Now()
	for k := 0; k < slotframes; k++ {
		c.cs.At(start+k*frame, func(cs *CoSim) {
			c.availSamples++
			// Fleet.Validate spelled out, so the harpdebug view assertion
			// also sees the mid-storm states no commit ever installs.
			sched, err := cs.Fleet.BuildSchedule()
			if err == nil {
				debugCheckView(cs.Fleet, sched)
				err = sched.Validate(cs.Fleet.Tree)
			}
			if err == nil {
				c.availOK++
			}
		})
	}
	return c.cs.RunSlotframes(slotframes)
}

// Availability returns the fraction of sampled slotframe boundaries with
// a valid fleet schedule.
func (c *Chaos) Availability() float64 {
	if c.availSamples == 0 {
		return 0
	}
	return float64(c.availOK) / float64(c.availSamples)
}

// OrphansRemaining counts live nodes still attached below a dead branch:
// a node that is neither crashed nor declared dead but has an ancestor
// that is. Zero after a completed heal — every survivor was re-homed.
func (c *Chaos) OrphansRemaining() int {
	return len(invariant.Orphans(c.cs.Fleet.Tree, c.det.DeadOrCrashed))
}

// Report summarises the storm's outcome.
type ChaosReport struct {
	Victims, PermanentVictims int
	Deaths, Adoptions         int
	Readmissions, Aborts      int
	// FalsePositives are dead declarations of nodes that were never
	// crashed (completely isolated by a long link flap).
	FalsePositives int
	// DetectP50Sf / DetectMaxSf are the median and maximum detection
	// latencies (crash to dead declaration) in slotframes.
	DetectP50Sf, DetectMaxSf float64
	// RehomeMaxSf is the maximum crash-to-adoption latency of any orphan,
	// in slotframes.
	RehomeMaxSf float64
	// Availability is the valid-schedule fraction over sampled slotframe
	// boundaries; OrphansRemaining must be zero after a completed heal.
	Availability     float64
	OrphansRemaining int
}

// Report computes the summary. Call after the run has drained.
func (c *Chaos) Report() ChaosReport {
	r := ChaosReport{
		Victims:          len(c.Victims),
		PermanentVictims: len(c.Permanent),
		Deaths:           len(c.det.Deaths),
		Adoptions:        len(c.det.Adoptions),
		Readmissions:     c.det.Readmissions,
		Aborts:           c.det.Aborts,
		Availability:     c.Availability(),
		OrphansRemaining: c.OrphansRemaining(),
	}
	frame := float64(c.cs.frame.Slots)
	var detect []float64
	for _, d := range c.det.Deaths {
		crashAt, wasVictim := c.crashClock[d.Node]
		if !wasVictim {
			r.FalsePositives++
			continue
		}
		detect = append(detect, (d.DeclaredAt-crashAt)/frame)
	}
	sort.Float64s(detect)
	if len(detect) > 0 {
		r.DetectP50Sf = detect[len(detect)/2]
		r.DetectMaxSf = detect[len(detect)-1]
	}
	for _, a := range c.det.Adoptions {
		if crashAt, ok := c.crashClock[a.DeadParent]; ok {
			if sf := (a.At - crashAt) / frame; sf > r.RehomeMaxSf {
				r.RehomeMaxSf = sf
			}
		}
	}
	return r
}
