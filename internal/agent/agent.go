// Package agent implements HARP as a distributed protocol: one Node per
// network device, exchanging the CoAP messages of Table I over a transport.
// The agents execute the same three phases as the centralized planner in
// internal/core — bottom-up interface generation, top-down partition
// allocation, distributed schedule generation, and dynamic partition
// adjustment — but each node holds only its own slice of state, exactly as
// on the paper's testbed. The per-node computations are shared with the
// planner (core.Compose, core.AllocateRoot, core.SplitPartition,
// core.AssignCells, core.AdjustLayout), so the distributed execution
// provably converges to the same schedules (asserted by integration tests).
//
// Node, Fleet and Detector are not safe for concurrent use: every agent is a
// plain handler driven from the goroutine that runs the shared virtual clock.
package agent

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/proto"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// dirState is one direction's protocol state at a node: one record per
// layer the node spans and one per child link, the shape the reference
// firmware keeps in fixed arrays (iface[MAX_HOP], sp_abs[MAX_HOP],
// HARP_child_t[MAX_CHILDREN_NUM]).
type dirState struct {
	// Window holds the per-layer records, sized to [ownLayer, maxLayer] at
	// a node that hosts children and empty at a leaf. Writes go through At,
	// which grows it: a stale grant can name a layer the node no longer
	// spans (its depth just changed, or it rebooted into a leaf), and is
	// still installed.
	core.Window[layerState]

	// kids holds one record per child link, in lockstep with Node.children
	// ("each node only maintains the cell requirements for the links passing
	// through it", §II-A); only insertChild and removeChild add or drop one.
	kids []childState

	// iface is this node's computed interface.
	iface proto.DirInterface

	// demandSince stamps the virtual time of the own-layer provisional
	// demand raise, for the adjustment watchdog (see layerState.since).
	demandSince float64

	// myCells are the cells the parent granted for this node's own link.
	myCells []schedule.Cell
}

// layerState is one direction's state at one layer. The composition
// fields (layout, comps and their pending counterparts) are used at layers
// above the own link layer.
type layerState struct {
	// part is the partition granted by the parent (or self-allocated at the
	// gateway); hasPart marks it granted.
	part    schedule.Region
	hasPart bool

	// pending marks an escalation in flight at this layer: pendingLayout and
	// pendingComps are the recomposition computed for it, committed when the
	// parent grants the new partition.
	pending bool

	// stamped marks that since holds the virtual time the escalation left,
	// for the adjustment watchdog, when the deployment has a virtual-time
	// source (shared.hooks). Only stampPending/clearPending (and the wipe in
	// resetResources) change it, keeping the fleet's in-flight tally in step.
	stamped bool
	since   float64

	// layout and comps are the committed composition of the children's
	// components; writes to comps go through host. layout is by child slot,
	// in lockstep with Node.children (insertChild and drop keep it so);
	// comps is keyed by child and read into slots through kernelComps.
	layout core.Layout
	comps  map[topology.NodeID]core.Component

	pendingLayout core.Layout
	pendingComps  map[topology.NodeID]core.Component

	// deferred queues adjust requests that arrived while this layer's
	// escalation was still in flight; they replay once the parent's grant
	// commits the pending recomposition. Without this queue, concurrent
	// escalations through a shared ancestor overwrite each other's pending
	// state and one request is silently lost.
	deferred []deferredAdjust

	// sent caches the last region pushed to each child, to send updates
	// only on change; writes go through grant.
	sent map[topology.NodeID]schedule.Region
}

// Granted returns the partition granted at the layer, if any.
func (ls layerState) Granted() (schedule.Region, bool) { return ls.part, ls.hasPart }

// host records child's component in the committed composition.
func (ls *layerState) host(child topology.NodeID, comp core.Component) {
	if ls.comps == nil {
		ls.comps = make(map[topology.NodeID]core.Component)
	}
	ls.comps[child] = comp
}

// grant records the region last pushed to child.
func (ls *layerState) grant(child topology.NodeID, r schedule.Region) {
	if ls.sent == nil {
		ls.sent = make(map[topology.NodeID]schedule.Region)
	}
	ls.sent[child] = r
}

// drop forgets a departed child, which held the given slot: committed and
// pending composition, queued requests and the send cache alike, so a
// grant arriving after the leave cannot commit it back.
func (ls *layerState) drop(slot int, child topology.NodeID) {
	delete(ls.comps, child)
	ls.layout = core.DeleteSlot(ls.layout, slot)
	delete(ls.pendingComps, child)
	ls.pendingLayout = core.DeleteSlot(ls.pendingLayout, slot)
	delete(ls.sent, child)
	ls.deferred = slices.DeleteFunc(ls.deferred, func(da deferredAdjust) bool { return da.from == child })
}

// childState is one direction's state for one child link.
type childState struct {
	// demand and topRate describe the link.
	demand  int
	topRate float64

	// cells is the link's RM cell assignment. Every write is followed by
	// Node.publish, and a stored slice is never modified in place
	// afterwards — the fleet view aliases it.
	cells []schedule.Cell

	// iface is the interface the child reported (non-leaf children);
	// reported marks it present.
	iface proto.DirInterface

	// held snapshots the link demand, while holding, before an own-layer
	// escalation not yet granted raised it. If the escalation dies, the
	// increase reverts — otherwise the stale demand would re-escalate on the
	// next interface recomputation.
	held demandSnapshot

	reported, holding bool
}

// deferredAdjust is one queued hostChildComponent call.
type deferredAdjust struct {
	from topology.NodeID
	comp core.Component
}

// demandSnapshot is a child link demand before an un-granted escalation.
type demandSnapshot struct {
	cells   int
	topRate float64
}

// Node is one HARP protocol agent.
type Node struct {
	id       topology.NodeID
	parent   topology.NodeID
	children []topology.NodeID // sorted
	nonLeaf  []topology.NodeID // sorted non-leaf children
	ownLayer int               // l(V_i) = depth+1
	maxLayer int               // l(G_Vi)
	// sh is what the whole deployment shares: the per-fleet constants and
	// the maintained fleet view this node publishes into.
	sh *shared

	dirs  [2]dirState
	msgID uint16

	// joining is set while this node re-attaches after a parent switch: the
	// next interface report goes out with the Join flag and these own-link
	// demands.
	joining    bool
	joinDemand [2]int

	// settledOnce records that the first PartitionSet was consumed, so a
	// duplicated copy of it (same regions) is recognised as such — without
	// it the legitimate first empty-entries set of a zero-demand subtree
	// would look like a duplicate of nothing.
	settledOnce bool

	// giveUps records the (peer, adjustment) keys already degraded into a
	// rejection, so a dead parent's repeated transport give-ups for the
	// same adjustment coalesce into one counted degradation. Lazily
	// allocated on the first give-up; cleared when the peer proves
	// reachable again (a grant) or the node is rewired/reset.
	giveUps map[giveUpKey]bool
}

// giveUpKey identifies one degraded (peer, adjustment) pair: the
// unreachable peer plus the adjustment's direction and layer for PUT
// escalations, or report=true for a lost POST interface report.
type giveUpKey struct {
	peer   topology.NodeID
	d      topology.Direction
	layer  int
	report bool
}

func (n *Node) dir(d topology.Direction) *dirState { return &n.dirs[d] }

func (n *Node) nextMsgID() uint16 {
	n.msgID++
	return n.msgID
}

func (n *Node) isGateway() bool { return n.parent == topology.None }

// reject counts an adjustment the node could not satisfy, in both the
// fleet tally (Fleet.Rejections) and the metrics registry.
func (n *Node) reject() {
	n.sh.rejections++
	n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricRejections))
}

// The Uri-Path options of the Table I resources and of the detector's
// probe, built once: every message of the fleet shares them read-only.
var (
	optsInterface = coap.PathOptions(proto.PathInterface)
	optsPartition = coap.PathOptions(proto.PathPartition)
	optsSchedule  = coap.PathOptions(proto.PathSchedule)
	optsKeepalive = coap.PathOptions(proto.PathKeepalive)
)

// route is the Table I handler a message resolves to.
type route uint8

const (
	routeNone       route = iota // not a HARP message: a keepalive probe, or noise
	routeReport                  // POST /intf
	routeLeave                   // DELETE /intf
	routeAdjust                  // PUT /intf
	routePartSet                 // POST /part
	routePartUpdate              // PUT /part
	routeSchedule                // POST /sched
)

// resolve maps a message to its handler from the method and the sole path
// segment, comparing bytes: no path string is built. A keepalive (POST /ka)
// resolves to routeNone.
//
//harplint:hotpath
func resolve(msg coap.Message) route {
	seg, single := msg.PathSegment()
	if !single {
		return routeNone
	}
	switch {
	case bytes.Equal(seg, optsInterface[0].Value):
		switch msg.Code {
		case coap.POST:
			return routeReport
		case coap.DELETE:
			return routeLeave
		case coap.PUT:
			return routeAdjust
		}
	case bytes.Equal(seg, optsPartition[0].Value):
		switch msg.Code {
		case coap.POST:
			return routePartSet
		case coap.PUT:
			return routePartUpdate
		}
	case bytes.Equal(seg, optsSchedule[0].Value):
		if msg.Code == coap.POST {
			return routeSchedule
		}
	}
	return routeNone
}

// send builds and transmits a CoAP request carrying a HARP payload; path is
// one of the prebuilt option slices above.
func (n *Node) send(to topology.NodeID, method coap.Code, path []coap.Option, payload []byte) {
	msg := coap.Message{
		Type: coap.NonConfirmable, Code: method, MessageID: n.nextMsgID(),
		Options: path, Payload: payload,
	}
	// Transport errors indicate a mis-deployed fleet; agents cannot repair
	// that, so the failure surfaces via the transport's own accounting.
	//harplint:allow errcheck
	_ = n.sh.net.Send(n.id, to, msg)
}

// Handle implements transport.Handler: the CoAP router of Table I. msg is
// borrowed from the transport for the call; the proto decoders copy what
// the handlers keep.
func (n *Node) Handle(from topology.NodeID, msg coap.Message) {
	if heard := n.sh.hooks.heard; heard != nil {
		// Any delivered message is liveness evidence for the detector;
		// keepalive probes (POST /ka) carry nothing else and resolve to no
		// route below.
		heard(from)
	}
	switch resolve(msg) {
	case routeReport:
		if m, err := proto.DecodeInterfaceReport(msg.Payload); err == nil {
			if m.Join {
				n.onChildJoin(m)
			} else {
				n.onInterfaceReport(m)
			}
		}
	case routeLeave:
		n.onChildLeave(from)
	case routeAdjust:
		if m, err := proto.DecodeAdjustRequest(msg.Payload); err == nil {
			n.onAdjustRequest(from, m)
		}
	case routePartSet:
		if m, err := proto.DecodePartitionSet(msg.Payload); err == nil {
			n.onPartitionSet(m)
		}
	case routePartUpdate:
		if m, err := proto.DecodePartitionUpdate(msg.Payload); err == nil {
			n.onPartitionUpdate(m)
		}
	case routeSchedule:
		if m, err := proto.DecodeScheduleNotice(msg.Payload); err == nil {
			n.dir(m.Direction).myCells = m.Cells
		}
	}
}

// HandleSendFailure implements transport.FailureHandler: a confirmable
// message of ours exhausted MAX_RETRANSMIT — the peer is dead or the link
// is down. Upward traffic (reports, adjust requests) degrades into a
// counted rejection, and an escalation's reserved pending state is unwound
// so the layer can adjust again instead of wedging behind a grant that
// will never come; deferred requests queued behind it replay immediately.
// Downward traffic (grants, notices) is simply dropped — a crashed child
// re-syncs through the Join path when it returns.
func (n *Node) HandleSendFailure(to topology.NodeID, msg coap.Message) {
	switch resolve(msg) {
	case routeAdjust:
		if m, err := proto.DecodeAdjustRequest(msg.Payload); err == nil {
			// One degradation per (peer, adjustment): a dead parent makes
			// every queued escalation of a layer give up in turn, but the
			// layer degrades once until the peer proves reachable again.
			n.degradeOnce(giveUpKey{peer: to, d: m.Direction, layer: m.Layer})
			if tr := n.sh.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindAgentUnwind).WithNode(int(n.id)).WithPeer(int(to)).
					WithLayer(m.Layer).WithDetail(m.Direction.String()))
			}
			n.unwindPending(m.Direction, m.Layer)
		} else {
			n.reject()
		}
	case routeReport:
		// Interface report lost: the parent is unreachable.
		n.degradeOnce(giveUpKey{peer: to, report: true})
	}
}

// degradeOnce counts a rejection for the (peer, adjustment) key unless it
// already degraded since the peer last proved reachable.
func (n *Node) degradeOnce(key giveUpKey) {
	if n.giveUps[key] {
		return
	}
	if n.giveUps == nil {
		n.giveUps = make(map[giveUpKey]bool)
	}
	n.giveUps[key] = true
	n.reject()
}

// stampPending records that layer's escalation left at virtual time now and
// counts it into the fleet's in-flight tally (Fleet.PendingAdjustments).
func (n *Node) stampPending(st *dirState, layer int, now float64) {
	ls := st.At(layer)
	if !ls.stamped {
		ls.stamped = true
		n.sh.pending++
	}
	ls.since = now
}

// clearPending drops layer's escalation stamp (committed, unwound or
// aborted) and takes it out of the fleet's in-flight tally.
func (n *Node) clearPending(st *dirState, layer int) {
	if ls := st.Layer(layer); ls != nil && ls.stamped {
		ls.stamped, ls.since = false, 0
		n.sh.pending--
	}
}

// unwindPending rolls one layer's in-flight adjustment state back to the
// last committed layout: the pending recomposition is dropped, own-layer
// provisional demand raises revert to their snapshots, and requests that
// deferred behind the escalation replay immediately. Shared by the
// transport give-up path (HandleSendFailure) and the adjustment watchdog
// (abortStale) — both end an escalation whose grant will never come.
func (n *Node) unwindPending(d topology.Direction, layer int) {
	st := n.dir(d)
	if layer == n.ownLayer {
		// A dead own-layer escalation: the grant will never come, so the
		// provisional link-demand increases revert.
		for i := range st.kids {
			if k := &st.kids[i]; k.holding {
				k.demand, k.topRate, k.holding = k.held.cells, k.held.topRate, false
			}
		}
		st.demandSince = 0
	}
	n.clearPending(st, layer)
	ls := st.Layer(layer)
	if ls == nil {
		return
	}
	ls.pending, ls.pendingLayout, ls.pendingComps = false, nil, nil
	q := ls.deferred
	ls.deferred = nil
	for _, da := range q {
		n.hostChildComponent(da.from, d, layer, da.comp)
	}
	if debugChecks {
		// The rollback must land on a consistent committed state: the
		// committed layout still fits the granted partition.
		if region, ok := st.Part(layer); ok && layer != n.ownLayer {
			ls := st.Layer(layer)
			if !core.LayoutValid(region.Slots, region.Channels, ls.layout, n.kernelComps(ls.comps)) {
				panic(fmt.Sprintf("harpdebug: node %d unwind at layer %d %s left an invalid committed layout",
					n.id, layer, d))
			}
		}
	}
}

// abortStale is the adjustment watchdog: every in-flight adjustment older
// than deadline virtual-time units is aborted and rolled back to the last
// committed schedule, exactly as a transport give-up would roll it back.
// This catches the hang the transport's retransmission give-up cannot: a
// parent that ACKed the escalation and then died never answers, and no
// timer fires at the child. Called by the failure detector's sweep; now is
// the current virtual time. Returns the number of aborted adjustments.
func (n *Node) abortStale(now, deadline float64) int {
	aborted := 0
	abort := func(d topology.Direction, layer int) {
		aborted++
		n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricAborts))
		if tr := n.sh.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindAgentAbort).WithNode(int(n.id)).WithPeer(int(n.parent)).
				WithLayer(layer).WithDetail(d.String()))
		}
		n.reject()
		n.unwindPending(d, layer)
	}
	for _, d := range topology.Directions() {
		st := n.dir(d)
		// In layer order, each layer judged once: unwindPending re-stamps
		// only the layer it unwinds (a deferred replay escalating afresh).
		for layer := st.Base; layer < st.Base+len(st.Layers); layer++ {
			if ls := st.Layer(layer); ls.stamped && now-ls.since >= deadline {
				abort(d, layer)
			}
		}
		if st.demandSince != 0 && now-st.demandSince >= deadline &&
			slices.ContainsFunc(st.kids, func(k childState) bool { return k.holding }) {
			abort(d, n.ownLayer)
		}
	}
	return aborted
}

// now reads the deployment's virtual clock; ok is false while none is bound
// (no detector, no BindVirtualTime), and stamping is then skipped.
func (n *Node) now() (t float64, ok bool) {
	if vnow := n.sh.hooks.vnow; vnow != nil {
		return vnow(), true
	}
	return 0, false
}

// start kicks off the static phase at this node: non-leaf nodes whose
// children are all leaves can compute and report immediately.
func (n *Node) start() {
	if len(n.children) == 0 {
		return // leaves report nothing; parents hold their link demands
	}
	if len(n.nonLeaf) == 0 {
		n.computeAndForwardInterface()
	}
}

// onInterfaceReport stores a child's interface; when all non-leaf children
// have reported, this node composes its own interface and forwards it (or
// allocates, at the gateway). A report from a node that is not a child is
// dropped.
func (n *Node) onInterfaceReport(m proto.InterfaceReport) {
	i, ok := slices.BinarySearch(n.children, m.Owner)
	if !ok {
		// Not a child here: this node dropped the sender as dead (or never
		// hosted it) and the sender has not noticed yet. Only a Join report
		// attaches a subtree — the sender re-registers through that path
		// when it is readmitted — so the stray is dropped and counted.
		n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricStrayReports))
		return
	}
	up, down := &n.dir(topology.Uplink).kids[i], &n.dir(topology.Downlink).kids[i]
	if up.reported && down.reported && dirIfaceEqual(up.iface, m.Up) && dirIfaceEqual(down.iface, m.Down) &&
		n.reported() >= len(n.nonLeaf) {
		return // duplicate of an already-consumed report: recomputing would re-forward
	}
	up.iface, up.reported = m.Up, true
	down.iface, down.reported = m.Down, true
	if n.reported() < len(n.nonLeaf) {
		return
	}
	n.computeAndForwardInterface()
}

// reported counts the children whose interface report is held.
func (n *Node) reported() int {
	count := 0
	for _, k := range n.dir(topology.Uplink).kids {
		if k.reported {
			count++
		}
	}
	return count
}

// computeAndForwardInterface runs interface generation (§IV-B) for both
// directions, then reports upward or allocates at the gateway.
func (n *Node) computeAndForwardInterface() {
	for _, d := range topology.Directions() {
		n.computeInterface(d)
	}
	if n.isGateway() {
		n.allocateRoot()
		return
	}
	report := proto.InterfaceReport{
		Owner: n.id,
		Up:    n.dir(topology.Uplink).iface,
		Down:  n.dir(topology.Downlink).iface,
	}
	if n.joining {
		report.Join = true
		report.Up.OwnDemand = n.joinDemand[topology.Uplink]
		report.Down.OwnDemand = n.joinDemand[topology.Downlink]
		n.joining = false
	}
	if tr := n.sh.tracer; tr.Enabled() {
		sp := tr.Emit(obs.Ev(obs.KindAgentReport).WithNode(int(n.id)).WithPeer(int(n.parent)).
			WithLayer(n.ownLayer).WithDetail(fmt.Sprintf("join=%t", report.Join)))
		tr.Push(sp)
		defer tr.Pop()
	}
	n.send(n.parent, coap.POST, optsInterface, proto.EncodeInterfaceReport(report))
}

func (n *Node) computeInterface(d topology.Direction) {
	st := n.dir(d)
	comps := make([]core.Component, 0, n.maxLayer-n.ownLayer+1)
	total := 0
	for _, k := range st.kids {
		total += k.demand
	}
	comps = append(comps, core.OwnLayerComponent(total))
	for layer := n.ownLayer + 1; layer <= n.maxLayer; layer++ {
		slots := n.sh.kern.Comps[:0]
		byChild := make(map[topology.NodeID]core.Component)
		for i, c := range n.children {
			var comp core.Component
			if _, nonLeaf := slices.BinarySearch(n.nonLeaf, c); nonLeaf && st.kids[i].reported {
				ci := st.kids[i].iface
				if idx := layer - ci.FirstLayer; idx >= 0 && idx < len(ci.Comps) && !ci.Comps[idx].Empty() {
					comp = ci.Comps[idx]
					byChild[c] = comp
				}
			}
			slots = append(slots, comp)
		}
		n.sh.kern.Comps = slots
		comp, layout, err := core.Compose(slots, n.sh.frame.Channels)
		if err != nil {
			comp, layout = core.Component{}, nil
		}
		comps = append(comps, comp)
		ls := st.At(layer)
		ls.layout, ls.comps = layout, byChild
	}
	st.iface = proto.DirInterface{FirstLayer: n.ownLayer, Comps: comps}
}

// allocateRoot is the gateway's partition allocation (§IV-C).
func (n *Node) allocateRoot() {
	up := core.Interface{Owner: n.id, FirstLayer: n.dir(topology.Uplink).iface.FirstLayer, Comps: n.dir(topology.Uplink).iface.Comps}
	down := core.Interface{Owner: n.id, FirstLayer: n.dir(topology.Downlink).iface.FirstLayer, Comps: n.dir(topology.Downlink).iface.Comps}
	alloc, err := core.AllocateRoot(up, down, n.sh.frame, false, n.sh.rootGap)
	if err != nil {
		n.reject()
		return
	}
	for dl, region := range alloc.Partitions {
		ls := n.dir(dl.Direction).At(dl.Layer)
		ls.part, ls.hasPart = region, true
	}
	n.settle()
}

// settle consumes this node's partitions: RM assignment at the own layer,
// splitting and dissemination at deeper layers (one POST /part per
// non-leaf child).
func (n *Node) settle() {
	grants := make(map[topology.NodeID][]proto.PartitionEntry)
	for _, d := range topology.Directions() {
		st := n.dir(d)
		for i := range st.Layers {
			ls, layer := &st.Layers[i], st.Base+i
			if !ls.hasPart {
				continue
			}
			if layer == n.ownLayer {
				n.assignOwn(d)
				continue
			}
			split, mark, err := n.split(ls)
			if err == nil {
				for i, off := range ls.layout {
					if !off.Placed {
						continue
					}
					child, r := n.children[i], split[i]
					ls.grant(child, r)
					grants[child] = append(grants[child], proto.PartitionEntry{Direction: d, Layer: layer, Region: r})
				}
			}
			n.sh.kern.PopRegions(mark)
			n.debugCheckGrants("settle", d, layer)
		}
	}
	// Every non-leaf child gets a PartitionSet (possibly empty) so the
	// static phase terminates even in zero-demand subtrees.
	for _, c := range n.nonLeaf {
		n.send(c, coap.POST, optsPartition, proto.EncodePartitionSet(proto.PartitionSet{Entries: grants[c]}))
	}
	n.debugCheckAssignments("settle")
}

// onPartitionSet installs the partitions granted by the parent and
// continues the top-down phase. A duplicated delivery (every entry equal to
// the installed partition) is dropped: re-running settle would re-send the
// whole subtree's PartitionSets and amplify one duplicate into a flood.
func (n *Node) onPartitionSet(m proto.PartitionSet) {
	if n.settledOnce {
		dup := true
		for _, e := range m.Entries {
			if cur, ok := n.dir(e.Direction).Part(e.Layer); !ok || cur != e.Region {
				dup = false
				break
			}
		}
		if dup {
			return
		}
	}
	n.settledOnce = true
	for _, e := range m.Entries {
		ls := n.dir(e.Direction).At(e.Layer)
		ls.part, ls.hasPart = e.Region, true
	}
	n.settle()
}

// assignOwn runs RM assignment inside the own-layer partition and notifies
// children whose cells changed.
func (n *Node) assignOwn(d topology.Direction) {
	st := n.dir(d)
	region, ok := st.Part(n.ownLayer)
	kern := &n.sh.kern
	demands := kern.Demands[:0]
	total := 0
	for i, c := range n.children {
		k := &st.kids[i]
		demands = append(demands, core.LinkDemand{
			Link:    topology.Link{Child: c, Direction: d},
			Cells:   k.demand,
			TopRate: k.topRate,
		})
		total += k.demand
	}
	kern.Demands = demands
	if !ok {
		if total == 0 {
			for i := range st.kids {
				st.kids[i].cells = nil
			}
			n.publish(d)
		}
		return
	}
	runs := kern.RunSlots(len(demands))
	if err := core.AssignCells(region, demands, runs, &kern.Assign); err != nil {
		// Mid-adjustment underfit: the demands no longer fit the partition
		// (an escalation for the growth is in flight). The region itself may
		// still have moved with this grant, and the vacated slots can
		// already belong to a sibling — prune any cells the new region no
		// longer covers and tell those children. The escalation's final
		// grant re-runs the full assignment.
		for i, c := range n.children {
			cells := st.kids[i].cells
			// A fresh slice, not cells[:0]: the published view aliases cells.
			kept := make([]schedule.Cell, 0, len(cells))
			for _, cell := range cells {
				if region.Contains(cell) {
					kept = append(kept, cell)
				}
			}
			if len(kept) == len(cells) {
				continue
			}
			st.kids[i].cells = kept
			if tr := n.sh.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindAgentAssign).WithNode(int(n.id)).WithPeer(int(c)).
					WithLayer(n.ownLayer).WithDetail(fmt.Sprintf("%s cells=%d", d, len(kept))))
			}
			n.send(c, coap.POST, optsSchedule, proto.EncodeScheduleNotice(proto.ScheduleNotice{
				Direction: d, Cells: kept,
			}))
		}
		n.publish(d)
		n.debugCheckAssignments("assignOwn")
		return
	}
	for i, c := range n.children {
		run := runs[i]
		if run.Matches(region, st.kids[i].cells) {
			if run.Count == 0 {
				st.kids[i].cells = nil
			}
			continue // unchanged: no message, and the stored slice stays
		}
		var next []schedule.Cell
		if run.Count > 0 {
			next = run.AppendCells(make([]schedule.Cell, 0, run.Count), region)
		}
		if tr := n.sh.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindAgentAssign).WithNode(int(n.id)).WithPeer(int(c)).
				WithLayer(n.ownLayer).WithDetail(fmt.Sprintf("%s cells=%d", d, len(next))))
		}
		n.send(c, coap.POST, optsSchedule, proto.EncodeScheduleNotice(proto.ScheduleNotice{
			Direction: d, Cells: next,
		}))
		st.kids[i].cells = next
	}
	n.publish(d)
	n.debugCheckAssignments("assignOwn")
}

// publish mirrors direction d's non-empty cell assignments into the fleet
// view, in child order, replacing what this node published for d before.
// It runs after every write to a childState's cells, so the view equals a
// walk over all agents at every instant and Fleet.BuildSchedule never
// visits a node.
func (n *Node) publish(d topology.Direction) {
	var links []linkCells
	for i, k := range n.dir(d).kids {
		if len(k.cells) > 0 {
			links = append(links, linkCells{child: n.children[i], cells: k.cells})
		}
	}
	n.sh.view.set(n.id, d, links)
}

// debugCheckAssignments validates that every non-empty own-layer cell
// assignment sits inside the own-layer partition, in both directions. This
// must hold at every quiescent point of the protocol, even mid-adjustment.
// Compiled out unless built with -tags harpdebug.
func (n *Node) debugCheckAssignments(op string) {
	if !debugChecks {
		return
	}
	for _, d := range topology.Directions() {
		st := n.dir(d)
		own, hasOwn := st.Part(n.ownLayer)
		for i, child := range n.children {
			cells := st.kids[i].cells
			if len(cells) == 0 {
				continue
			}
			if !hasOwn {
				panic(fmt.Sprintf("harpdebug: node %d after %s: %s cells for child %d without an own-layer partition",
					n.id, op, d, child))
			}
			for _, c := range cells {
				if !own.Contains(c) {
					panic(fmt.Sprintf("harpdebug: node %d after %s: %s cell %v for child %d outside partition %v",
						n.id, op, d, c, child, own))
				}
			}
		}
	}
}

// debugCheckGrants validates the grants a node just (re)computed for one
// layer in one direction: each child's region inside the node's partition
// at that layer, and the regions pairwise disjoint. Only the layer just
// modified is checked — grants at other layers are a send-dedup cache and
// may legitimately be stale until that layer's own partition update
// arrives. Compiled out unless built with -tags harpdebug.
func (n *Node) debugCheckGrants(op string, d topology.Direction, layer int) {
	if !debugChecks {
		return
	}
	ls := n.dir(d).Layer(layer)
	if ls == nil {
		return
	}
	byChild := ls.sent
	var ids []topology.NodeID
	for _, child := range n.children {
		r, ok := byChild[child]
		if !ok || r.Empty() {
			continue
		}
		if !ls.hasPart || !ls.part.ContainsRegion(r) {
			panic(fmt.Sprintf("harpdebug: node %d after %s: granted %v to child %d outside its layer-%d %s partition",
				n.id, op, r, child, layer, d))
		}
		ids = append(ids, child)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if byChild[ids[i]].Overlaps(byChild[ids[j]]) {
				panic(fmt.Sprintf("harpdebug: node %d after %s: grants to children %d and %d overlap at layer %d %s",
					n.id, op, ids[i], ids[j], layer, d))
			}
		}
	}
}

func dirIfaceEqual(a, b proto.DirInterface) bool {
	return a.FirstLayer == b.FirstLayer && a.OwnDemand == b.OwnDemand && slices.Equal(a.Comps, b.Comps)
}

// SetChildDemand is the traffic-change entry point (§V): the parent of the
// affected link updates the requirement and performs local schedule update,
// or escalates a partition adjustment.
func (n *Node) SetChildDemand(child topology.NodeID, d topology.Direction, cells int, topRate float64) error {
	if !slices.Contains(n.children, child) {
		return fmt.Errorf("agent: node %d has no child %d", n.id, child)
	}
	if cells < 0 {
		return fmt.Errorf("agent: negative demand %d", cells)
	}
	n.applyChildDemand(child, d, cells, topRate)
	return nil
}

// applyChildDemand is SetChildDemand's body, after validation.
func (n *Node) applyChildDemand(child topology.NodeID, d topology.Direction, cells int, topRate float64) {
	st := n.dir(d)
	k := n.kid(d, child)
	old, oldRate := k.demand, k.topRate
	k.demand, k.topRate = cells, topRate
	if cells <= old {
		n.assignOwn(d) // Release: cells freed locally.
		return
	}
	total := 0
	for i := range st.kids {
		total += st.kids[i].demand
	}
	if region, ok := st.Part(n.ownLayer); ok && total <= region.CellCount() {
		n.assignOwn(d) // Case 1: local schedule update.
		return
	}
	// Case 2: escalate with the grown own-layer component. The increase is
	// provisional until the parent grants the space; snapshot the old value
	// so an unreachable parent's give-up can revert it.
	if !k.holding {
		k.held, k.holding = demandSnapshot{cells: old, topRate: oldRate}, true
	}
	if st.demandSince == 0 {
		if now, ok := n.now(); ok {
			st.demandSince = now
		}
	}
	n.escalate(d, n.ownLayer, core.Component{Slots: total, Channels: 1})
}

// escalate requests a grown component at the given layer from the parent,
// or — at the gateway — widens its own layer partition in place.
func (n *Node) escalate(d topology.Direction, layer int, comp core.Component) {
	n.sh.metrics.Inc(obs.LayerKey(int(n.id), layer, obs.MetricEscalations))
	if n.isGateway() {
		if tr := n.sh.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindAgentEscalate).WithNode(int(n.id)).WithLayer(layer).
				WithDetail(fmt.Sprintf("%s root-widen slots=%d ch=%d", d, comp.Slots, comp.Channels)))
		}
		if !n.rootWiden(d, layer, comp) {
			n.reject()
		}
		return
	}
	if tr := n.sh.tracer; tr.Enabled() {
		sp := tr.Emit(obs.Ev(obs.KindAgentEscalate).WithNode(int(n.id)).WithPeer(int(n.parent)).
			WithLayer(layer).WithDetail(fmt.Sprintf("%s slots=%d ch=%d", d, comp.Slots, comp.Channels)))
		tr.Push(sp)
		defer tr.Pop()
	}
	n.send(n.parent, coap.PUT, optsInterface, proto.EncodeAdjustRequest(proto.AdjustRequest{
		Origin: n.id, Direction: d, Layer: layer, Comp: comp,
	}))
}

// RequestDemand is the child-initiated traffic-change request of the
// paper's flowchart (Fig. 8(b)): the node noticing increased queueing on
// its own link sends a PUT /intf carrying the new requirement to its
// parent, which absorbs it locally or escalates. cells is the requested
// demand of this node's own link in the given direction.
func (n *Node) RequestDemand(d topology.Direction, cells int) error {
	if n.isGateway() {
		return fmt.Errorf("agent: gateway has no own link")
	}
	if cells < 0 {
		return fmt.Errorf("agent: negative demand %d", cells)
	}
	n.send(n.parent, coap.PUT, optsInterface, proto.EncodeAdjustRequest(proto.AdjustRequest{
		Origin:    n.id,
		Direction: d,
		Layer:     n.ownLayer - 1, // the layer of this node's link to its parent
		Comp:      core.Component{Slots: cells, Channels: 1},
	}))
	return nil
}

// onAdjustRequest handles a child's PUT /intf: feasibility test (Problem 2)
// plus the cost-aware adjustment (Alg. 2), escalating when the local
// partition cannot host the increase.
func (n *Node) onAdjustRequest(from topology.NodeID, m proto.AdjustRequest) {
	if !slices.Contains(n.children, from) {
		// Not a child here, as for a stray interface report: only current
		// children are hosted, so a departed child stays departed.
		n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricStrayReports))
		return
	}
	if m.Layer == n.ownLayer {
		// A child reports a new requirement for its own link (RequestDemand):
		// this is a link-demand change handled exactly like SetChildDemand.
		n.applyChildDemand(from, m.Direction, m.Comp.Slots, float64(m.Comp.Slots))
		return
	}
	n.hostChildComponent(from, m.Direction, m.Layer, m.Comp)
}

// hostChildComponent places a child's (grown or newly appearing) component
// at one layer: Alg. 2 inside the current partition when possible,
// otherwise minimal extension and escalation (or in-place extension at the
// gateway).
func (n *Node) hostChildComponent(from topology.NodeID, d topology.Direction, layer int, comp core.Component) {
	st := n.dir(d)
	ls := st.At(layer)
	if cur, ok := ls.comps[from]; ok && cur == comp {
		if _, granted := ls.sent[from]; granted {
			return // already hosted unchanged (e.g. a rejoining child): re-laying out would shuffle siblings
		}
	}
	if ls.pending {
		// An escalation for this layer is in flight: its pending layout was
		// computed without this request, and recomputing now would clobber
		// it. Queue the request; applyPartition replays it after the grant.
		ls.deferred = append(ls.deferred, deferredAdjust{from: from, comp: comp})
		return
	}
	slot, ok := slices.BinarySearch(n.children, from)
	if !ok {
		return // only current children are hosted; a departed child's requests left with it
	}
	region := ls.part
	if ls.hasPart {
		newLayout, moved, fits := core.AdjustLayout(region.Slots, region.Channels, ls.layout, n.kernelComps(ls.comps), slot, comp)
		if fits {
			ls.host(from, comp)
			ls.layout = newLayout
			for _, m := range moved {
				child := n.children[m]
				off := newLayout[m]
				r := ls.comps[child].Region(region.Slot+off.Slot, region.Channel+off.Channel)
				ls.grant(child, r)
				n.send(child, coap.PUT, optsPartition, proto.EncodePartitionUpdate(proto.PartitionUpdate{
					Direction: d, Layer: layer, Region: r,
				}))
			}
			n.debugCheckGrants("hostChildComponent", d, layer)
			return
		}
	}
	if n.isGateway() {
		// End of the line: extend the layer partition in place.
		if !n.rootHost(d, layer, slot, comp) {
			n.reject()
		}
		return
	}
	// Grow this node's component at the layer just enough to host the
	// increase, keeping siblings in place, and escalate the enlarged
	// component; the new layout commits when the parent grants the space.
	merged := make(map[topology.NodeID]core.Component, len(ls.comps)+1)
	for id, c := range ls.comps {
		merged[id] = c
	}
	merged[from] = comp
	var hostComp core.Component
	if ls.hasPart {
		hostComp = core.Component{Slots: region.Slots, Channels: region.Channels}
	}
	grown, layout, ok := core.MinimalExtension(hostComp, ls.layout, n.kernelComps(ls.comps), slot, comp, n.sh.frame.Channels)
	if !ok {
		n.reject()
		return
	}
	ls.pending, ls.pendingLayout, ls.pendingComps = true, layout, merged
	if now, ok := n.now(); ok {
		n.stampPending(st, layer, now)
	}
	n.escalate(d, layer, grown)
}

// onChildLeave handles DELETE /intf: the child (and its subtree) detached —
// the release case of §V. Its components disappear from every layer; the
// freed cells stay idle inside this branch's partitions, and the own-layer
// schedule shrinks. It also drops a child the failure detector declared
// dead, as if the DELETE had arrived. Idempotent (an unknown child is a
// no-op).
func (n *Node) onChildLeave(from topology.NodeID) {
	if !slices.Contains(n.children, from) {
		return
	}
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentLeave).WithNode(int(n.id)).WithPeer(int(from)))
	}
	n.removeChild(from)
	for _, d := range topology.Directions() {
		n.assignOwn(d)
	}
}

// onChildJoin handles a Join-flagged POST /intf: a node (with its subtree)
// attached under this node after a topology change. Every layer of the
// reported interface is hosted through the ordinary adjustment machinery,
// then the new link's demand is absorbed like a traffic change.
func (n *Node) onChildJoin(m proto.InterfaceReport) {
	// A Join from a node already in children is a crashed child rejoining
	// (a reparented node arrives unknown): after hosting it, re-send the
	// state its reboot lost, which the send-dedup caches would suppress.
	rejoining := slices.Contains(n.children, m.Owner)
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentJoin).WithNode(int(n.id)).WithPeer(int(m.Owner)).
			WithDetail(fmt.Sprintf("rejoin=%t", rejoining)))
	}
	dirIfaces := [2]proto.DirInterface{m.Up, m.Down}
	occupied := func(c core.Component) bool { return !c.Empty() }
	hasComps := slices.ContainsFunc(m.Up.Comps, occupied) || slices.ContainsFunc(m.Down.Comps, occupied)
	n.insertChild(m.Owner, hasComps)
	if hasComps {
		for _, d := range topology.Directions() {
			k := n.kid(d, m.Owner)
			k.iface, k.reported = dirIfaces[d], true
		}
	}
	for _, d := range topology.Directions() {
		di := dirIfaces[d]
		for i, comp := range di.Comps {
			if comp.Empty() {
				continue
			}
			n.hostChildComponent(m.Owner, d, di.FirstLayer+i, comp)
		}
		if rejoining && n.kid(d, m.Owner).demand == di.OwnDemand {
			// A rebooted child reporting its configured demand: this node's
			// stored demand and top rate are already authoritative (the Join
			// report carries no rate), so re-applying would only perturb the
			// cell assignment with the float64(cells) rate fallback.
			continue
		}
		n.applyChildDemand(m.Owner, d, di.OwnDemand, float64(di.OwnDemand))
	}
	if rejoining {
		n.resyncChild(m.Owner)
	}
}

// resyncChild re-sends a rejoining child's current grants and own-link
// cells. The child's reboot wiped them, but this node's send-dedup caches
// (layerState.sent, the unchanged-cells check in assignOwn) see no change and would stay silent;
// the child's duplicate guards make the re-sends safe if it did not
// actually reboot.
func (n *Node) resyncChild(child topology.NodeID) {
	for _, d := range topology.Directions() {
		st := n.dir(d)
		for i := range st.Layers {
			if r, ok := st.Layers[i].sent[child]; ok {
				n.send(child, coap.PUT, optsPartition, proto.EncodePartitionUpdate(proto.PartitionUpdate{
					Direction: d, Layer: st.Base + i, Region: r,
				}))
			}
		}
		if cells := n.kid(d, child).cells; len(cells) > 0 {
			n.send(child, coap.POST, optsSchedule, proto.EncodeScheduleNotice(proto.ScheduleNotice{
				Direction: d, Cells: cells,
			}))
		}
	}
}

// kid returns direction d's record of child c; nil if c is not a child.
func (n *Node) kid(d topology.Direction, c topology.NodeID) *childState {
	if i, ok := slices.BinarySearch(n.children, c); ok {
		return &n.dirs[d].kids[i]
	}
	return nil
}

// insertChild adds c to the sorted children, with a zero record in both
// directions, unless it is one already; nonLeaf also lists it among the
// non-leaf children.
func (n *Node) insertChild(c topology.NodeID, nonLeaf bool) {
	if i, found := slices.BinarySearch(n.children, c); !found {
		n.children = slices.Insert(n.children, i, c)
		for d := range n.dirs {
			st := &n.dirs[d]
			st.kids = slices.Insert(st.kids, i, childState{})
			for l := range st.Layers {
				ls := &st.Layers[l]
				ls.layout, ls.pendingLayout = core.InsertSlot(ls.layout, i), core.InsertSlot(ls.pendingLayout, i)
			}
		}
		n.sizeWindows()
	}
	if i, found := slices.BinarySearch(n.nonLeaf, c); nonLeaf && !found {
		n.nonLeaf = slices.Insert(n.nonLeaf, i, c)
	}
}

// removeChild drops c from the children, with its records (and so its
// published cells) and its entries in every layer record.
func (n *Node) removeChild(c topology.NodeID) {
	i, found := slices.BinarySearch(n.children, c)
	if !found {
		return
	}
	n.children = slices.Delete(n.children, i, i+1)
	if j, found := slices.BinarySearch(n.nonLeaf, c); found {
		n.nonLeaf = slices.Delete(n.nonLeaf, j, j+1)
	}
	for d := range n.dirs {
		st := &n.dirs[d]
		st.kids = slices.Delete(st.kids, i, i+1)
		for l := range st.Layers {
			st.Layers[l].drop(i, c)
		}
		n.publish(topology.Direction(d))
	}
}

// sizeWindows pre-sizes both layer windows to [ownLayer, maxLayer] at a
// node that hosts children (or the gateway); a leaf keeps none.
func (n *Node) sizeWindows() {
	if len(n.children) == 0 && !n.isGateway() {
		return
	}
	for d := range n.dirs {
		n.dirs[d].Cover(n.ownLayer, n.maxLayer)
	}
}

// kernelComps lays a layer's child components out by child slot, in the
// fleet's scratch: the form the kernels take.
func (n *Node) kernelComps(byChild map[topology.NodeID]core.Component) []core.Component {
	comps := n.sh.kern.Comps[:0]
	for _, c := range n.children {
		comps = append(comps, byChild[c])
	}
	n.sh.kern.Comps = comps
	return comps
}

// split divides a layer's partition among the children its layout places
// (core.SplitPartition), by child slot, into a frame it pushes onto the
// fleet's region stack and returns with its mark; the caller pops it.
func (n *Node) split(ls *layerState) ([]schedule.Region, int, error) {
	kern := &n.sh.kern
	mark := kern.PushRegions(len(n.children))
	regions := kern.Regions[mark:]
	return regions, mark, core.SplitPartition(ls.part, n.children, ls.layout, n.kernelComps(ls.comps), regions)
}

// Root-level adjustment at the gateway agent uses the centralized planner's
// layout (core.ReflowRoot, core.RootHost): layer partitions are an ordered
// sequence of slot intervals (compliant order, time-disjoint because
// adjacent layers share nodes); a grown layer extends in place and later
// intervals shift only as far as needed. Nothing is applied unless the
// adjustment fits.

// rootParts returns the gateway's current layer partitions per direction,
// in the fleet's kernel scratch: the form core.ReflowRoot and core.RootHost
// take.
func (n *Node) rootParts() [2]core.LayerRegions {
	root := &n.sh.kern.Root
	for d := range n.dirs {
		root[d] = n.dirs[d].Regions(root[d].Regions)
	}
	return *root
}

// rootWiden grows the gateway's own-layer partition to the requested width.
func (n *Node) rootWiden(d topology.Direction, layer int, comp core.Component) bool {
	placements, ok := core.ReflowRoot(n.rootParts(), core.DirLayer{Direction: d, Layer: layer}, comp, n.sh.frame)
	if !ok {
		return false
	}
	for _, pl := range placements {
		n.applyPartition(pl.Key.Direction, pl.Key.Layer, pl.Region)
	}
	return true
}

// rootHost extends the gateway's layer partition just enough to host the
// grown component of the child at slot, keeping that layer's other
// children in place.
func (n *Node) rootHost(d topology.Direction, layer, slot int, curComp core.Component) bool {
	ls := n.dir(d).At(layer)
	newLayout, placements, ok := core.RootHost(n.rootParts(), core.DirLayer{Direction: d, Layer: layer},
		ls.layout, n.kernelComps(ls.comps), slot, curComp, n.sh.frame)
	if !ok {
		return false
	}
	ls.host(n.children[slot], curComp)
	ls.layout = newLayout
	for _, pl := range placements {
		// applyPartition skips descendants whose regions are unchanged.
		n.applyPartition(pl.Key.Direction, pl.Key.Layer, pl.Region)
	}
	return true
}

// onPartitionUpdate applies a PUT /part from the parent. An update carrying
// the already-installed region is a duplicate: a genuine grant after an
// escalation always differs from the current region (the escalated
// component did not fit in it), so an identical region carries no new
// information — and applying it could wrongly commit a pending
// recomposition belonging to a newer escalation at the same layer.
func (n *Node) onPartitionUpdate(m proto.PartitionUpdate) {
	if cur, ok := n.dir(m.Direction).Part(m.Layer); ok && cur == m.Region {
		return
	}
	n.applyPartition(m.Direction, m.Layer, m.Region)
}

// applyPartition installs a new partition at one layer, committing any
// pending recomposition, and pushes the consequences downward.
func (n *Node) applyPartition(d topology.Direction, layer int, region schedule.Region) {
	st := n.dir(d)
	// The parent's grant is authoritative even at a layer outside the
	// window: a relay that rebooted after its children were adopted away is
	// a leaf now, yet its parent still re-syncs the regions it holds for it.
	ls := st.At(layer)
	ls.part, ls.hasPart = region, true
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentGrant).WithNode(int(n.id)).WithLayer(layer).
			WithDetail(fmt.Sprintf("%s slot=%d slots=%d ch=%d", d, region.Slot, region.Slots, region.Channels)))
	}
	if ls.pending {
		ls.layout, ls.comps = ls.pendingLayout, ls.pendingComps
		ls.pending, ls.pendingLayout, ls.pendingComps = false, nil, nil
		if ls.stamped {
			// Escalation→commit latency: from hosting the escalated child
			// component (the since stamp) to this grant committing the
			// recomposition, in milli-slots.
			if now, ok := n.now(); ok {
				n.sh.metrics.Dist(obs.Key(obs.MetricEscCommitMs)).Observe(int64((now - ls.since) * 1000))
			}
		}
		n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricCommits))
		if tr := n.sh.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindAgentCommit).WithNode(int(n.id)).WithLayer(layer).WithDetail(d.String()))
		}
	}
	n.clearPending(st, layer)
	if n.giveUps != nil {
		// A grant proves the parent reachable: future give-ups to it count
		// as fresh degradations.
		delete(n.giveUps, giveUpKey{peer: n.parent, d: d, layer: layer})
		delete(n.giveUps, giveUpKey{peer: n.parent, report: true})
	}
	if layer == n.ownLayer {
		// The grant commits any provisionally raised link demands.
		for i := range st.kids {
			st.kids[i].holding = false
		}
		st.demandSince = 0
		n.assignOwn(d)
		return
	}
	split, mark, err := n.split(ls)
	defer n.sh.kern.PopRegions(mark)
	if err != nil {
		return
	}
	for i, off := range ls.layout {
		if !off.Placed {
			continue
		}
		child, r := n.children[i], split[i]
		if prev, ok := ls.sent[child]; ok && prev == r {
			continue // unchanged: no message
		}
		ls.grant(child, r)
		n.send(child, coap.PUT, optsPartition, proto.EncodePartitionUpdate(proto.PartitionUpdate{
			Direction: d, Layer: layer, Region: r,
		}))
	}
	n.debugCheckGrants("applyPartition", d, layer)
	// Replay adjust requests that queued behind the just-committed
	// escalation; against the new partition they either fit or escalate
	// afresh.
	q := ls.deferred
	ls.deferred = nil
	for _, da := range q {
		n.hostChildComponent(da.from, d, layer, da.comp)
	}
}

// Leave announces this node's detachment to its current parent (the
// DELETE /intf of a parent switch) without touching local state; the fleet
// rewires the structure afterwards.
func (n *Node) Leave() {
	if n.isGateway() {
		return
	}
	n.send(n.parent, coap.DELETE, optsInterface, nil)
}

// setStructure installs recomputed tree coordinates after a topology
// change.
func (n *Node) setStructure(parent topology.NodeID, ownLayer, maxLayer int) {
	if parent != n.parent {
		// A new parent means past degradations no longer describe the
		// current uplink.
		clear(n.giveUps)
	}
	n.parent = parent
	n.ownLayer = ownLayer
	n.maxLayer = maxLayer
	n.sizeWindows()
}

// resetResources clears all layer-keyed resource state (used when a moved
// subtree re-joins at a different depth). Link demands are preserved.
func (n *Node) resetResources() {
	for _, d := range topology.Directions() {
		st := n.dir(d)
		// Wipe everything but the configured link demands (reloaded by the
		// caller) and the granted own-link cells; the window is re-sized
		// below, empty at a leaf.
		for i := range st.Layers {
			if st.Layers[i].stamped {
				n.sh.pending--
			}
		}
		for i, k := range st.kids {
			st.kids[i] = childState{demand: k.demand, topRate: k.topRate}
		}
		*st = dirState{kids: st.kids, myCells: st.myCells}
		n.publish(d)
	}
	n.sizeWindows()
	n.settledOnce = false
	clear(n.giveUps)
}

// startJoin primes the node to re-attach: its next interface report carries
// the Join flag and the given own-link demands, and nodes whose children
// are all leaves recompute immediately (deeper subtrees report bottom-up).
func (n *Node) startJoin(upDemand, downDemand int) {
	n.joining = true
	n.joinDemand[topology.Uplink] = upDemand
	n.joinDemand[topology.Downlink] = downDemand
	if len(n.nonLeaf) == 0 {
		n.computeAndForwardInterface()
	}
}

// Snapshot accessors (used by the fleet and tests).

// Assignment returns the node's RM cell assignment for its child links in
// one direction.
func (n *Node) Assignment(d topology.Direction) map[topology.NodeID][]schedule.Cell {
	kids := n.dir(d).kids
	out := make(map[topology.NodeID][]schedule.Cell, len(kids))
	for i, k := range kids {
		if len(k.cells) > 0 {
			out[n.children[i]] = slices.Clone(k.cells)
		}
	}
	return out
}

// Partition returns the node's granted partition at a layer.
func (n *Node) Partition(d topology.Direction, layer int) (schedule.Region, bool) {
	return n.dir(d).Part(layer)
}
