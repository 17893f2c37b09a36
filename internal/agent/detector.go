package agent

import (
	"fmt"
	"math/rand"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// DetectorNet is the transport view the failure detector needs: background
// keepalive probes and the scripted crash state. transport.Bus satisfies it.
type DetectorNet interface {
	SendBackground(from, to topology.NodeID, msg coap.Message) error
	Crashed(id topology.NodeID) bool
}

// DetectorConfig parameterises the failure detector. All durations are in
// slots (the virtual-time unit).
type DetectorConfig struct {
	// Interval is the keepalive/sweep period. Each sweep every live node
	// probes its parent and children, then silence is judged against the
	// thresholds below.
	Interval float64
	// SuspectAfter is the silence after which a node turns suspect.
	SuspectAfter float64
	// DeadAfter is the silence after which a suspect is declared dead and
	// its orphans are adopted. Scripted outages shorter than this ride out
	// undetected (CON retransmission already covers them).
	DeadAfter float64
	// AbortAfter is the adjustment watchdog deadline: an in-flight
	// escalation older than this is aborted and rolled back. Zero disables
	// the watchdog. Must comfortably exceed the worst-case grant latency
	// (including the transport's ~62-slotframe CON give-up backoff) or
	// healthy adjustments get aborted.
	AbortAfter float64
	// Seed drives the sweep jitter stream (vclock.StreamDetector).
	Seed int64
	// Demand returns the link demands the fleet should converge to after
	// re-homing moved under newParent — computed over a clone of the tree
	// with the move applied, since the detector calls it before rewiring.
	// A (None, None) call asks for the demands of the current tree (used
	// when a readmitted node restarts under its unchanged parent).
	Demand func(moved, newParent topology.NodeID) *traffic.Demand
	// Tracer and Metrics are the detector's observability sinks (nil-safe).
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// DefaultDetectorConfig returns the standard thresholds for a slotframe
// length: sweep every slotframe, suspect after 3, declare dead after 6,
// abort stale adjustments after 80 (past the CON give-up backoff, so the
// watchdog only catches the ACKed-then-died hang the transport never
// times out on).
func DefaultDetectorConfig(slotframeSlots int) DetectorConfig {
	sf := float64(slotframeSlots)
	return DetectorConfig{
		Interval:     sf,
		SuspectAfter: 3 * sf,
		DeadAfter:    6 * sf,
		AbortAfter:   80 * sf,
	}
}

// DeathRecord is one dead declaration.
type DeathRecord struct {
	Node        topology.NodeID
	SuspectedAt float64
	DeclaredAt  float64
}

// AdoptionRecord is one orphan re-homing.
type AdoptionRecord struct {
	Orphan     topology.NodeID
	DeadParent topology.NodeID
	NewParent  topology.NodeID
	At         float64
}

type liveness uint8

const (
	liveAlive liveness = iota
	liveSuspect
	liveDead
)

// Detector is the virtual-time failure detector: a periodic sweep sends
// keepalives on behalf of every live node (to its parent and children),
// watches global last-heard times, and drives silence through a
// suspect → dead state machine. A death triggers orphan adoption through
// Fleet.Adopt; a node heard again after its death is readmitted through
// the restart/adoption machinery. The sweep also runs the adjustment
// watchdog (Node.abortStale) on live nodes.
//
// The paper's testbed announces failures to the experiment harness; here
// Bus.Crash is silent and outages are *discovered* from missing traffic,
// as a deployment would. The detector is centralized over one fleet —
// the global last-heard table stands in for per-neighbour timers, which
// makes network partitions invisible (a partitioned node keeps its
// global liveness through any reachable neighbour; partitions shorter
// than DeadAfter are ridden out by CON retransmission). Link flaps that
// isolate a node completely for longer than DeadAfter cause an honest
// false positive, healed by readmission when the link returns.
//
// All state transitions happen inside clock events: the detector must only
// be driven through the shared virtual clock (Bus, CoSim).
//
// A keepalive is the commonest message a fleet carries (two per tree link
// per period), so the per-node state is three slices indexed by the tree's
// dense index — the delivery hook is one index lookup and one store — and
// the sweep walks a cached probe list (probeWalk) instead of asking the
// tree for every node's parent and sorted children every period.
type Detector struct {
	fleet *Fleet
	net   DetectorNet
	clock *vclock.Clock
	cfg   DetectorConfig
	rng   *rand.Rand

	// lastHeard, state and suspectedAt are indexed by Tree.Index and sized
	// Tree.IndexCap at Start (empty before it: every query answers false).
	// A zero suspectedAt means not suspected.
	lastHeard   []float64
	state       []liveness
	suspectedAt []float64
	// walk is the cached probe list; walkGen is the fleet's tree generation
	// it was built at (see Fleet.treeGen).
	walk    probeWalk
	walkGen uint64
	msgID   uint16
	stopped bool
	timer   *vclock.Handle

	// Deaths, Adoptions and Readmissions record what the detector did, in
	// declaration order. They survive Bus.ResetCounters (which wipes the
	// metrics registry at every adjustment trigger).
	Deaths       []DeathRecord
	Adoptions    []AdoptionRecord
	Readmissions int
	// Aborts counts watchdog rollbacks across all sweeps.
	Aborts int

	errs []error
}

// NewDetector builds a detector over a deployed fleet. Call Start after
// the static phase has drained — the recurring sweep would keep
// Bus.Run/Clock.Run from ever finishing.
func NewDetector(f *Fleet, net DetectorNet, clock *vclock.Clock, cfg DetectorConfig) (*Detector, error) {
	if cfg.Interval <= 0 || cfg.SuspectAfter <= 0 || cfg.DeadAfter <= cfg.SuspectAfter {
		return nil, fmt.Errorf("agent: detector thresholds invalid (interval %v, suspect %v, dead %v)",
			cfg.Interval, cfg.SuspectAfter, cfg.DeadAfter)
	}
	if cfg.Demand == nil {
		return nil, fmt.Errorf("agent: detector needs a demand provider")
	}
	return &Detector{
		fleet: f,
		net:   net,
		clock: clock,
		cfg:   cfg,
		rng:   vclock.NewStream(vclock.StreamDetector, cfg.Seed),
	}, nil
}

// probeWalk is the sweep's view of the tree, in the order the sweep visits
// it: every node in NodeID order and, per node, the peers it probes — its
// parent first, then its children in NodeID order. Everything is a dense
// tree index (Tree.NodeAt maps back). The node set of a deployed fleet is
// fixed; the peers change only when Fleet.rehome rewires the tree, which
// bumps Fleet.treeGen and makes the next sweep rebuild the walk.
type probeWalk struct {
	nodes []int32 // every node, in NodeID order
	off   []int32 // nodes[k] probes peers[off[k]:off[k+1]]
	peers []int32
}

// rebuild recomputes the walk from the tree, reusing its storage.
func (w *probeWalk) rebuild(tree *topology.Tree) {
	w.nodes, w.off, w.peers = w.nodes[:0], w.off[:0], w.peers[:0]
	for _, id := range tree.Nodes() {
		w.nodes = append(w.nodes, int32(tree.Index(id)))
		w.off = append(w.off, int32(len(w.peers)))
		if parent, err := tree.Parent(id); err == nil && parent != topology.None {
			w.peers = append(w.peers, int32(tree.Index(parent)))
		}
		for _, c := range tree.Children(id) {
			w.peers = append(w.peers, int32(tree.Index(c)))
		}
	}
	w.off = append(w.off, int32(len(w.peers)))
}

// Start wires the liveness hooks into every agent and schedules the first
// sweep. Every node starts alive and freshly heard.
func (d *Detector) Start() {
	now := d.clock.Now()
	n := d.fleet.Tree.IndexCap()
	d.lastHeard = make([]float64, n)
	d.state = make([]liveness, n) // liveAlive
	d.suspectedAt = make([]float64, n)
	for i := range d.lastHeard {
		d.lastHeard[i] = now
	}
	d.walk.rebuild(d.fleet.Tree)
	d.walkGen = d.fleet.treeGen
	d.fleet.BindVirtualTime(d.clock.Now)
	d.fleet.setHeard(d.heard)
	d.stopped = false
	d.scheduleSweep()
}

// heard is the agents' delivery hook: any message from a node is liveness
// evidence for it. One index lookup, one store.
//
//harplint:hotpath
func (d *Detector) heard(from topology.NodeID) {
	if i := d.index(from); i >= 0 {
		d.lastHeard[i] = d.clock.Now()
	}
}

// index returns a node's position in the per-node slices, or -1 for an id
// the detector holds no state for (unknown to the tree, or not started).
func (d *Detector) index(id topology.NodeID) int {
	if i := d.fleet.Tree.Index(id); i < len(d.state) {
		return i
	}
	return -1
}

// stateOf returns a node's liveness (alive for an id without state).
func (d *Detector) stateOf(id topology.NodeID) liveness {
	if i := d.index(id); i >= 0 {
		return d.state[i]
	}
	return liveAlive
}

// Stop unwires the delivery hook and cancels the pending sweep; the clock
// can drain again. The deployment's virtual-clock reading stays bound.
func (d *Detector) Stop() {
	d.stopped = true
	if d.timer != nil {
		d.timer.Cancel()
		d.timer = nil
	}
	d.fleet.setHeard(nil)
}

// Err returns the first error any sweep's recovery action hit, if any.
func (d *Detector) Err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return d.errs[0]
}

// Dead reports whether the detector currently considers a node dead.
func (d *Detector) Dead(id topology.NodeID) bool { return d.stateOf(id) == liveDead }

// Suspected reports whether the detector currently suspects a node.
func (d *Detector) Suspected(id topology.NodeID) bool { return d.stateOf(id) == liveSuspect }

// DeadOrCrashed is the predicate adoptions and demand shifts use: a node
// the detector declared dead, or one the transport knows is down (its
// agent state is frozen and must not be mutated).
func (d *Detector) DeadOrCrashed(id topology.NodeID) bool {
	return d.stateOf(id) == liveDead || d.net.Crashed(id)
}

func (d *Detector) scheduleSweep() {
	// Jitter the period ±10% so detector timers never beat exactly against
	// slot boundaries; the draw comes from the detector's own stream.
	at := d.clock.Now() + d.cfg.Interval*(0.9+0.2*d.rng.Float64())
	d.timer = d.clock.ScheduleCancelableIn(0, at, d.sweep)
}

// sweep is one detector period: probe, judge silence, recover, watchdog.
func (d *Detector) sweep() {
	if d.stopped {
		return
	}
	now := d.clock.Now()
	tree := d.fleet.Tree
	if d.walkGen != d.fleet.treeGen {
		d.walk.rebuild(tree)
		d.walkGen = d.fleet.treeGen
	}
	nodes := d.walk.nodes // fixed for the sweep: adoptions below move nodes, never add or remove them

	// 1. Keepalives: every non-crashed node probes its parent and children.
	// Background sends hold no in-flight slot, so quiescence (and every
	// delivery counter) is untouched.
	d.probe()

	// 2. Judge silence. Transitions are collected first and applied in
	// sorted node order; the dead set is fully marked before any adoption
	// runs, so a parent and child dying in the same sweep never adopt into
	// each other.
	var newlyDead, comebacks []topology.NodeID
	for _, i := range nodes {
		id := tree.NodeAt(int(i))
		if id == topology.GatewayID {
			continue // the gateway anchors the hierarchy (it hosts the detector)
		}
		silence := now - d.lastHeard[i]
		switch d.state[i] {
		case liveDead:
			if silence < d.cfg.DeadAfter {
				comebacks = append(comebacks, id)
			}
		case liveSuspect:
			if silence < d.cfg.SuspectAfter {
				d.state[i] = liveAlive
				d.suspectedAt[i] = 0
			} else if silence >= d.cfg.DeadAfter {
				newlyDead = append(newlyDead, id)
			}
		case liveAlive:
			if silence >= d.cfg.SuspectAfter {
				d.suspect(id, now)
				if silence >= d.cfg.DeadAfter {
					newlyDead = append(newlyDead, id)
				}
			}
		}
	}
	// Root-cause attribution: a node whose ancestor is dying in this same
	// sweep — or still merely suspect — is silent *because* its probe path
	// died with that ancestor: a crashed parent swallows its children's
	// keepalives, and delivery jitter can make the child cross DeadAfter a
	// sweep before the parent does (a child that silent has an ancestor at
	// least SuspectAfter silent). Blamed nodes get one grace window (a
	// fresh last-heard stamp) instead of a death: if they are truly alive,
	// adoption re-homes them when the ancestor is declared and their
	// probes flow again; if they crashed too, the grace expires with their
	// ancestor already declared (no longer blamable) and they die one
	// DeadAfter later, rescuing their own subtrees level by level.
	if len(newlyDead) > 0 {
		dying := make(map[topology.NodeID]bool, len(newlyDead))
		for _, id := range newlyDead {
			dying[id] = true
		}
		declared := newlyDead[:0]
		for _, id := range newlyDead {
			blamed := false
			if ancestors, err := tree.Ancestors(id); err == nil {
				for _, a := range ancestors {
					if dying[a] || d.stateOf(a) == liveSuspect {
						blamed = true
						break
					}
				}
			}
			if blamed {
				d.lastHeard[tree.Index(id)] = now
				continue
			}
			declared = append(declared, id)
		}
		newlyDead = declared
	}
	for _, id := range newlyDead {
		d.state[tree.Index(id)] = liveDead
	}
	for _, id := range newlyDead {
		d.declareDead(id, now)
	}
	for _, id := range comebacks {
		d.readmit(id, now)
	}

	// 3. Adjustment watchdog on live nodes.
	if d.cfg.AbortAfter > 0 {
		for _, i := range nodes {
			if d.state[i] == liveDead || d.net.Crashed(tree.NodeAt(int(i))) {
				continue
			}
			d.Aborts += d.fleet.nodes[i].abortStale(now, d.cfg.AbortAfter)
		}
	}

	d.scheduleSweep()
}

// probe sends one sweep's keepalives along the cached walk.
//
//harplint:hotpath
func (d *Detector) probe() {
	tree, w := d.fleet.Tree, &d.walk
	for k, i := range w.nodes {
		from := tree.NodeAt(int(i))
		if d.net.Crashed(from) {
			continue
		}
		for _, p := range w.peers[w.off[k]:w.off[k+1]] {
			d.msgID++
			msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: d.msgID, Options: optsKeepalive}
			// An unknown peer cannot happen on a deployed fleet; the error
			// path is the transport's own accounting.
			//harplint:allow errcheck
			_ = d.net.SendBackground(from, tree.NodeAt(int(p)), msg)
		}
	}
}

func (d *Detector) suspect(id topology.NodeID, now float64) {
	i := d.fleet.Tree.Index(id)
	d.state[i] = liveSuspect
	d.suspectedAt[i] = now
	if m := d.cfg.Metrics; m != nil {
		m.Inc(obs.Key(obs.MetricSuspects))
	}
	if tr := d.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentSuspect).WithNode(int(id)))
	}
}

// declareDead records the death and runs the recovery: the live parent
// drops the dead child, every live orphan is adopted, and the dead agent's
// resource state is wiped so its stale assignments cannot pollute the
// fleet schedule while it is gone.
func (d *Detector) declareDead(id topology.NodeID, now float64) {
	i := d.fleet.Tree.Index(id)
	rec := DeathRecord{Node: id, SuspectedAt: d.suspectedAt[i], DeclaredAt: now}
	if rec.SuspectedAt == 0 {
		rec.SuspectedAt = now
	}
	d.suspectedAt[i] = 0
	d.Deaths = append(d.Deaths, rec)
	if m := d.cfg.Metrics; m != nil {
		m.Inc(obs.Key(obs.MetricDeaths))
	}
	if tr := d.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentDead).WithNode(int(id)).
			WithDetail(fmt.Sprintf("silent=%.0f", now-d.lastHeard[i])))
	}

	parent, err := d.fleet.Tree.Parent(id)
	if err != nil {
		d.errs = append(d.errs, err)
		return
	}
	if p := d.fleet.node(parent); p != nil && !d.DeadOrCrashed(parent) {
		p.onChildLeave(id) // as if the dead child's DELETE /intf had arrived
	}

	// Adopt the live orphans. Children returns a copy, so the adoptions'
	// tree rewiring cannot disturb the iteration; dead or crashed children
	// stay in place under the corpse — their own subtrees are rescued when
	// they are declared dead themselves.
	for _, orphan := range d.fleet.Tree.Children(id) {
		if d.DeadOrCrashed(orphan) {
			continue
		}
		// Detect→adopt latency, one observation per re-homed orphan: from
		// the sweep that first suspected the dead parent to this adoption
		// (milli-slots). Readmission-path adoptions have no suspicion
		// context and are deliberately not observed.
		if d.adopt(orphan, id, now) {
			if m := d.cfg.Metrics; m != nil {
				m.Dist(obs.Key(obs.MetricDetectAdoptMs)).Observe(int64((now - rec.SuspectedAt) * 1000))
			}
		}
	}

	d.fleet.node(id).resetResources()
}

// adopt re-homes one live orphan of deadParent under the deterministic
// candidate and records it.
func (d *Detector) adopt(orphan, deadParent topology.NodeID, now float64) bool {
	candidate := d.adoptiveParent(deadParent)
	if candidate == topology.None {
		d.errs = append(d.errs, fmt.Errorf("agent: no live adoptive parent for %d", orphan))
		return false
	}
	demand := d.cfg.Demand(orphan, candidate)
	if err := d.fleet.Adopt(orphan, candidate, demand, d.DeadOrCrashed); err != nil {
		d.errs = append(d.errs, fmt.Errorf("agent: adopting %d under %d: %w", orphan, candidate, err))
		return false
	}
	d.Adoptions = append(d.Adoptions, AdoptionRecord{
		Orphan: orphan, DeadParent: deadParent, NewParent: candidate, At: now,
	})
	if m := d.cfg.Metrics; m != nil {
		m.Inc(obs.Key(obs.MetricAdoptions))
	}
	if tr := d.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentAdopt).WithNode(int(orphan)).WithPeer(int(candidate)).
			WithDetail(fmt.Sprintf("dead=%d", deadParent)))
	}
	return true
}

// adoptiveParent picks where a dead node's orphans go: the lowest-ID live
// child of the nearest live ancestor (excluding the dead branch), or that
// ancestor itself when it has no other live children. Deterministic, and
// never inside the orphan's own subtree — the candidates are siblings (or
// ancestors) of the dead parent, all strictly outside it.
func (d *Detector) adoptiveParent(dead topology.NodeID) topology.NodeID {
	anchor, err := d.fleet.Tree.Parent(dead)
	if err != nil {
		return topology.None
	}
	exclude := dead
	for anchor != topology.None && d.DeadOrCrashed(anchor) {
		exclude = anchor
		next, err := d.fleet.Tree.Parent(anchor)
		if err != nil {
			return topology.None
		}
		anchor = next
	}
	if anchor == topology.None {
		return topology.None // the gateway itself is gone: nothing to attach to
	}
	for _, c := range d.fleet.Tree.Children(anchor) { // sorted: lowest ID wins
		if c != exclude && !d.DeadOrCrashed(c) {
			return c
		}
	}
	return anchor
}

// readmit handles a node heard again after its death declaration: a
// scripted restart (or a healed false positive). The node re-attaches
// with wiped volatile state through the restart machinery — under its
// unchanged parent when that parent is live, else through adoption.
func (d *Detector) readmit(id topology.NodeID, now float64) {
	i := d.fleet.Tree.Index(id)
	d.state[i] = liveAlive
	d.suspectedAt[i] = 0
	d.Readmissions++
	if tr := d.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentReadmit).WithNode(int(id)))
	}
	parent, err := d.fleet.Tree.Parent(id)
	if err != nil {
		d.errs = append(d.errs, err)
		return
	}
	if parent != topology.None && d.DeadOrCrashed(parent) {
		// The old parent is still gone: rejoining it would wedge; the
		// returning subtree re-homes like an orphan. Its agent lists may be
		// stale (children adopted away while it was dead), so sync them
		// from the tree first — rehome reloads demands through them.
		d.fleet.syncFromTree(id)
		d.adopt(id, parent, now)
		return
	}
	if err := d.fleet.RestartNode(id, d.cfg.Demand(topology.None, topology.None)); err != nil {
		d.errs = append(d.errs, fmt.Errorf("agent: readmitting %d: %w", id, err))
	}
}
