package agent

import (
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// Fleet deploys one Node per network device over a transport and provides
// whole-network views (the global schedule, validation) that a real
// deployment would obtain by instrumentation.
type Fleet struct {
	Tree  *topology.Tree
	Frame schedule.Slotframe
	// nodes is indexed by the tree's dense node index (topology.Tree.Index).
	nodes []*Node
	// sh is the state all agents share, including the maintained views the
	// whole-network accessors below read.
	sh *shared
	// treeGen counts the rewirings of Tree (rehome is the one place a
	// deployed fleet's tree changes); the failure detector rebuilds its
	// cached probe walk when it moves.
	treeGen uint64
}

// node resolves an agent through the tree's dense index; nil if unknown.
func (f *Fleet) node(id topology.NodeID) *Node {
	if i := f.Tree.Index(id); i >= 0 && i < len(f.nodes) {
		return f.nodes[i]
	}
	return nil
}

// DeployOption customises a fleet deployment.
type DeployOption func(*deployConfig)

type deployConfig struct {
	rootGap int
	tracer  *obs.Tracer
	metrics *obs.Registry
}

// WithRootGap makes the gateway leave the given number of idle slots
// between its layer partitions, so dynamic adjustments can widen a layer
// without shifting (and re-signalling) its successors.
func WithRootGap(slots int) DeployOption {
	return func(c *deployConfig) { c.rootGap = slots }
}

// WithTracer attaches an observability tracer to every deployed agent.
// Agents emit agent.* events for protocol transitions (reports, grants,
// escalations, commits, joins). A nil tracer disables tracing.
func WithTracer(t *obs.Tracer) DeployOption {
	return func(c *deployConfig) { c.tracer = t }
}

// WithMetrics attaches a metrics registry to every deployed agent. Agents
// count escalations, commits and rejections into it. A nil registry
// disables the counters.
func WithMetrics(r *obs.Registry) DeployOption {
	return func(c *deployConfig) { c.metrics = r }
}

// Deploy builds the agents for every node of the tree, loads the link
// demands into the owning parents, and registers the agents with the
// transport. Call Start (then run/drain the transport) to execute the
// static phase.
func Deploy(tree *topology.Tree, frame schedule.Slotframe, demand *traffic.Demand, net interface {
	transport.Network
	Register(topology.NodeID, transport.Handler)
}, opts ...DeployOption) (*Fleet, error) {
	var cfg deployConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := frame.Validate(); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	sh := &shared{frame: frame, rootGap: cfg.rootGap, net: net, tracer: cfg.tracer, metrics: cfg.metrics}
	sh.view.hosts = make(map[topology.NodeID][2][]linkCells)
	f := &Fleet{Tree: tree, Frame: frame, nodes: make([]*Node, tree.IndexCap()), sh: sh}
	maxLayers := tree.SubtreeMaxLayers()
	for _, id := range tree.Nodes() {
		parent, err := tree.Parent(id)
		if err != nil {
			return nil, err
		}
		ownLayer, err := tree.LinkLayer(id)
		if err != nil {
			return nil, err
		}
		children := tree.Children(id)
		var nonLeaf []topology.NodeID
		for _, c := range children {
			if !tree.IsLeaf(c) {
				nonLeaf = append(nonLeaf, c)
			}
		}
		n := &Node{
			id:       id,
			parent:   parent,
			children: children,
			nonLeaf:  nonLeaf,
			ownLayer: ownLayer,
			maxLayer: maxLayers[tree.Index(id)],
			sh:       sh,
		}
		// Only nodes that host children carry per-child and per-layer
		// records; leaf agents allocate nothing (the dominant population at
		// scale). The gateway always gets a window — it self-allocates
		// partitions.
		for d := range n.dirs {
			n.dirs[d].kids = make([]childState, len(children))
		}
		n.sizeWindows()
		n.loadDemands(demand)
		f.nodes[tree.Index(id)] = n
		net.Register(id, n)
	}
	return f, nil
}

// Start triggers the static partition allocation phase: nodes at the
// deepest non-leaf level report first (§IV-B). The caller must then run the
// transport to completion (Bus.Run).
func (f *Fleet) Start() {
	for _, id := range f.Tree.Nodes() {
		f.node(id).start()
	}
}

// Node returns the agent for a device.
func (f *Fleet) Node(id topology.NodeID) (*Node, error) {
	n := f.node(id)
	if n == nil {
		return nil, fmt.Errorf("agent: unknown node %d", id)
	}
	return n, nil
}

// SetLinkDemand applies a traffic change at the owning parent agent. The
// caller must run the transport afterwards to let the adjustment protocol
// complete.
func (f *Fleet) SetLinkDemand(l topology.Link, cells int, topRate float64) error {
	parent, err := f.Tree.Parent(l.Child)
	if err != nil {
		return err
	}
	if parent == topology.None {
		return fmt.Errorf("agent: link %v has no parent", l)
	}
	return f.node(parent).SetChildDemand(l.Child, l.Direction, cells, topRate)
}

// RequestLinkDemand routes a traffic change through the child end of the
// link, as the paper's flowchart does: the child sends a PUT /intf request
// upward and the parent absorbs or escalates it. The caller must run the
// transport afterwards.
func (f *Fleet) RequestLinkDemand(l topology.Link, cells int) error {
	n := f.node(l.Child)
	if n == nil {
		return fmt.Errorf("agent: unknown node %d", l.Child)
	}
	return n.RequestDemand(l.Direction, cells)
}

// BuildSchedule returns the global schedule — every agent's current
// own-layer cell assignment — as the instrumentation view used for
// validation and simulation. It reads the maintained view the agents
// publish into at each assignment write, so it costs O(links that own
// cells) whatever the fleet size, and equals a walk over all agents in
// NodeID order at every instant, mid-protocol states included. The result
// is a fresh copy: callers may keep or edit it without touching fleet
// state.
func (f *Fleet) BuildSchedule() (*schedule.Schedule, error) {
	s, err := schedule.NewSchedule(f.Frame)
	if err != nil {
		return nil, err
	}
	if err := f.sh.view.appendTo(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate builds the global schedule (BuildSchedule) and checks the
// collision-freedom and half-duplex invariants on it; nothing is checked
// less than on a from-scratch walk, only the assembly is cheaper.
func (f *Fleet) Validate() error {
	s, err := f.BuildSchedule()
	if err != nil {
		return err
	}
	return s.Validate(f.Tree)
}

// Reparent performs a distributed topology change (§V, "topology
// changes"): node — with its subtree — detaches from its current parent
// (DELETE /intf), the fleet rewires the routing structure (RPL's job), the
// subtree recomputes its interfaces bottom-up, and the moved node re-joins
// under newParent with a Join-flagged POST /intf that the new branch hosts
// through the ordinary adjustment machinery. newDemand is the link demand
// over the post-change routes (e.g. traffic.Compute on the new tree). The
// caller must run the transport afterwards; validate with Fleet.Validate.
//
//harplint:allow unused the agents' half of core.Plan.Reparent (churn, harp.Network.ReparentNode), wired in by ROADMAP item 8; TestFleetReparent* cover it
func (f *Fleet) Reparent(node, newParent topology.NodeID, newDemand *traffic.Demand) error {
	mover, err := f.Node(node)
	if err != nil {
		return err
	}
	if _, err := f.Node(newParent); err != nil {
		return err
	}
	oldParent, err := f.Tree.Parent(node)
	if err != nil {
		return err
	}
	if oldParent == newParent {
		return fmt.Errorf("agent: node %d already under %d", node, newParent)
	}

	// 1. Leave: announce detachment to the old parent.
	mover.Leave()

	return f.rehome(node, newParent, newDemand, nil)
}

// Adopt re-homes an orphan whose parent was declared dead, with its whole
// subtree, under newParent. It is Reparent without the DELETE /intf leave
// announcement: the dead parent cannot hear it, and a confirmable leave
// would only wedge the pair for the full retransmission backoff. Instead
// the dead parent's agent state is pruned directly (its own notification
// sends are crash-dropped by the transport — a dead radio transmits
// nothing). Adopting a node already under newParent is a no-op, which
// makes duplicate death declarations idempotent. skipDemandAt, if
// non-nil, suppresses the outside-subtree demand shifts at parents the
// caller knows are dead (their frozen state is rebuilt at readmission).
func (f *Fleet) Adopt(orphan, newParent topology.NodeID, newDemand *traffic.Demand,
	skipDemandAt func(topology.NodeID) bool) error {
	if _, err := f.Node(orphan); err != nil {
		return err
	}
	if _, err := f.Node(newParent); err != nil {
		return err
	}
	oldParent, err := f.Tree.Parent(orphan)
	if err != nil {
		return err
	}
	if oldParent == topology.None {
		return fmt.Errorf("agent: cannot adopt the gateway")
	}
	if oldParent == newParent {
		return nil // already re-homed: duplicate adoption is idempotent
	}
	if op := f.node(oldParent); op != nil {
		op.onChildLeave(orphan)
	}
	return f.rehome(orphan, newParent, newDemand, skipDemandAt)
}

// rehome is the shared body of Reparent and Adopt: rewire the tree, reset
// and re-report the moved subtree, and shift forwarding-path demands
// outside it.
func (f *Fleet) rehome(node, newParent topology.NodeID, newDemand *traffic.Demand,
	skipDemandAt func(topology.NodeID) bool) error {
	mover := f.node(node)
	subtree, err := f.Tree.Subtree(node)
	if err != nil {
		return err
	}

	// 2. Rewire (what RPL does) and refresh every agent's coordinates —
	// depths shift inside the moved subtree, subtree-max layers shift on
	// both ancestor chains.
	if err := f.Tree.Reparent(node, newParent); err != nil {
		return err
	}
	f.treeGen++
	maxLayers := f.Tree.SubtreeMaxLayers()
	for i, n := range f.nodes {
		id := f.Tree.NodeAt(i)
		parent, err := f.Tree.Parent(id)
		if err != nil {
			return err
		}
		ownLayer, err := f.Tree.LinkLayer(id)
		if err != nil {
			return err
		}
		n.setStructure(parent, ownLayer, maxLayers[i])
	}
	np := f.node(newParent)
	if !slices.Contains(np.children, node) {
		np.insertChild(node, !f.Tree.IsLeaf(node))
	}

	// 3. Reset the moved subtree's resource state and load the post-change
	// demands of its internal links into the owning parents.
	for _, id := range subtree {
		f.node(id).resetResources()
	}
	for _, id := range subtree {
		f.node(id).loadDemands(newDemand)
	}

	// 4. Trigger the subtree's bottom-up re-report; the moved node's report
	// carries the Join flag and its own-link demands.
	upLink := topology.Link{Child: node, Direction: topology.Uplink}
	downLink := topology.Link{Child: node, Direction: topology.Downlink}
	mover.startJoin(newDemand.Cells(upLink), newDemand.Cells(downLink))
	for _, id := range subtree {
		if id == node {
			continue
		}
		agentNode := f.node(id)
		if len(agentNode.children) > 0 && len(agentNode.nonLeaf) == 0 {
			agentNode.computeAndForwardInterface()
		}
	}

	// 5. Forwarding-path demand shifts outside the subtree go through the
	// ordinary traffic-change path at the owning parents.
	inSubtree := make(map[topology.NodeID]bool, len(subtree))
	for _, id := range subtree {
		inSubtree[id] = true
	}
	for _, l := range newDemand.Links() {
		if inSubtree[l.Child] {
			continue
		}
		parent, err := f.Tree.Parent(l.Child)
		if err != nil || parent == topology.None {
			continue
		}
		if skipDemandAt != nil && skipDemandAt(parent) {
			continue
		}
		pa := f.node(parent)
		k := pa.kid(l.Direction, l.Child)
		if k == nil {
			// The child was dropped as dead at this parent (or has not yet
			// re-attached); its demand re-registers through the Join path.
			continue
		}
		if k.demand == newDemand.Cells(l) {
			continue
		}
		flows := newDemand.Flows(l)
		top := 1.0
		if len(flows) > 0 {
			top = flows[0].Task.Rate
		}
		if err := pa.SetChildDemand(l.Child, l.Direction, newDemand.Cells(l), top); err != nil {
			return err
		}
	}
	return nil
}

// RestartNode models the recovery side of a device reboot: the agent's
// volatile protocol state is wiped (as RAM is), its link demands are
// reloaded from configuration, and it re-attaches to its unchanged parent
// through the same Join flag a reparented node uses. Its non-leaf children
// — who never crashed — re-report their interfaces (on a real deployment
// they notice the parent's reboot), which lets the node rebuild its own
// interface bottom-up; the parent's onChildJoin then re-syncs the grants
// the reboot lost. The caller scripts the outage itself on the transport
// (Bus.Crash before, Bus.Restart just before calling this) and runs the
// transport afterwards; validate with Fleet.Validate.
func (f *Fleet) RestartNode(id topology.NodeID, demand *traffic.Demand) error {
	n, err := f.Node(id)
	if err != nil {
		return err
	}
	if n.isGateway() {
		return fmt.Errorf("agent: gateway restart is not supported")
	}
	// Sync the agent's child lists with the current tree before the reset:
	// while the node was down its children may have been adopted away (or a
	// neighbour attached), and the frozen lists would reload demand for
	// links that no longer exist. A no-op when the topology is unchanged.
	f.syncFromTree(id)
	n.resetResources()
	nonLeaf := slices.Clone(n.nonLeaf)
	for d := range n.dirs {
		n.dirs[d].myCells = nil
	}
	n.loadDemands(demand)
	upLink := topology.Link{Child: id, Direction: topology.Uplink}
	downLink := topology.Link{Child: id, Direction: topology.Downlink}
	n.startJoin(demand.Cells(upLink), demand.Cells(downLink))
	for _, c := range nonLeaf {
		child := f.node(c)
		child.computeAndForwardInterface()
	}
	return nil
}

// syncFromTree reconciles one agent's child lists (and their records) with
// the current tree. Used when an agent's frozen state may lag the topology:
// a restarting node whose children were adopted away while it was down.
func (f *Fleet) syncFromTree(id topology.NodeID) {
	n := f.node(id)
	if n == nil {
		return
	}
	treeChildren := f.Tree.Children(id)
	for i := len(n.children) - 1; i >= 0; i-- {
		if c := n.children[i]; !slices.Contains(treeChildren, c) {
			n.removeChild(c)
		}
	}
	var nonLeaf []topology.NodeID
	for _, c := range treeChildren {
		n.insertChild(c, false)
		if !f.Tree.IsLeaf(c) {
			nonLeaf = append(nonLeaf, c)
		}
	}
	n.nonLeaf = nonLeaf
}

// loadDemands loads the demands of the links between this node and its
// children; a link without flows keeps its top rate.
func (n *Node) loadDemands(demand *traffic.Demand) {
	for i, c := range n.children {
		for _, d := range topology.Directions() {
			l := topology.Link{Child: c, Direction: d}
			k := &n.dirs[d].kids[i]
			k.demand = demand.Cells(l)
			if flows := demand.Flows(l); len(flows) > 0 {
				k.topRate = flows[0].Task.Rate
			}
		}
	}
}

// Rejections returns the adjustment rejections across all agents: an O(1)
// read of the tally every Node.reject counts into.
func (f *Fleet) Rejections() int { return int(f.sh.rejections) }

// BindVirtualTime gives the deployment a virtual-clock reading so
// escalations are stamped (layerState.since) and escalation→commit latency
// is observed. The failure detector binds the same clock when it starts
// and leaves it bound when it stops; binding here means stamping also
// works on runs without a detector. Behaviour-neutral: the stamps are read
// only by the watchdog and the latency telemetry.
func (f *Fleet) BindVirtualTime(vnow func() float64) { f.sh.hooks.vnow = vnow }

// setHeard wires (or, with nil, unwires) the failure detector's delivery
// hook for every agent at once. It leaves the clock reading bound: a
// stopping detector must not blind the stamps.
func (f *Fleet) setHeard(heard func(topology.NodeID)) { f.sh.hooks.heard = heard }

// PendingAdjustments returns the fleet's in-flight adjustments: layers
// holding a stamped escalation whose grant has not committed yet. The
// telemetry layer samples it at window boundaries; it is an O(1) read of
// the tally the agents keep at their stamp and clear sites.
func (f *Fleet) PendingAdjustments() int { return int(f.sh.pending) }
