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
package agent

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/proto"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
)

// dirState is one direction's protocol state at a node.
type dirState struct {
	// demand and topRate describe the links between this node and its
	// children ("each node only maintains the cell requirements for the
	// links passing through it", §II-A).
	demand  map[topology.NodeID]int
	topRate map[topology.NodeID]float64

	// childIfaces holds the interfaces reported by non-leaf children.
	childIfaces map[topology.NodeID]proto.DirInterface
	// iface is this node's computed interface.
	iface proto.DirInterface

	// layouts and childComps are the committed composition state per layer
	// (> own link layer).
	layouts    map[int]core.Layout
	childComps map[int]map[topology.NodeID]core.Component

	// pending holds recompositions computed while escalating an adjustment,
	// committed when the parent grants the new partition.
	pendingLayouts map[int]core.Layout
	pendingComps   map[int]map[topology.NodeID]core.Component

	// deferred queues adjust requests that arrived at a layer while an
	// escalation for that layer was still in flight; they replay once the
	// parent's grant commits the pending recomposition. Without this queue,
	// concurrent escalations through a shared ancestor overwrite each
	// other's pending state and one request is silently lost.
	deferred map[int][]deferredAdjust

	// pendingDemand snapshots child link demands raised by an own-layer
	// escalation that has not been granted yet. If the escalation dies (the
	// parent is unreachable and the transport gives up), the increase is
	// reverted — otherwise the stale demand would re-escalate on the next
	// interface recomputation, e.g. while re-hosting a rejoining neighbour.
	pendingDemand map[topology.NodeID]demandSnapshot

	// pendingSince stamps the virtual time each layer's escalation left
	// (and demandSince the own-layer provisional demand raise), for the
	// adjustment watchdog. Only written when the deployment has a
	// virtual-time source (shared.hooks); zero cost otherwise. pendingSince
	// changes only through stampPending/clearPending (and the wipe in
	// resetResources), which keep the fleet's in-flight tally in step.
	pendingSince map[int]float64
	demandSince  float64

	// parts are the partitions granted by the parent (or self-allocated at
	// the gateway), keyed by layer.
	parts map[int]schedule.Region

	// assignment is the RM cell assignment of the own-layer links. Every
	// write is followed by Node.publish, and a stored cell slice is never
	// modified in place afterwards — the fleet view aliases it.
	assignment map[topology.NodeID][]schedule.Cell
	// sentRegions caches the last partition regions pushed to children, to
	// send updates only on change.
	sentRegions map[int]map[topology.NodeID]schedule.Region

	// myCells are the cells the parent granted for this node's own link.
	myCells []schedule.Cell
}

// ensure allocates the per-child and per-layer maps. Called when a node
// (first) hosts children: at Deploy for non-leaves and the gateway, on a
// Join-flagged report (a subtree attached under a former leaf), and when
// Fleet.Reparent rewires a subtree under a former leaf — and by the
// handlers that store a parent's grant or a child's report, which must not
// depend on the node having hosted children before.
func (st *dirState) ensure() {
	if st.demand == nil {
		st.demand = make(map[topology.NodeID]int)
	}
	if st.topRate == nil {
		st.topRate = make(map[topology.NodeID]float64)
	}
	if st.childIfaces == nil {
		st.childIfaces = make(map[topology.NodeID]proto.DirInterface)
	}
	if st.layouts == nil {
		st.layouts = make(map[int]core.Layout)
	}
	if st.childComps == nil {
		st.childComps = make(map[int]map[topology.NodeID]core.Component)
	}
	if st.pendingLayouts == nil {
		st.pendingLayouts = make(map[int]core.Layout)
	}
	if st.pendingComps == nil {
		st.pendingComps = make(map[int]map[topology.NodeID]core.Component)
	}
	if st.parts == nil {
		st.parts = make(map[int]schedule.Region)
	}
	if st.assignment == nil {
		st.assignment = make(map[topology.NodeID][]schedule.Cell)
	}
	if st.sentRegions == nil {
		st.sentRegions = make(map[int]map[topology.NodeID]schedule.Region)
	}
	if st.deferred == nil {
		st.deferred = make(map[int][]deferredAdjust)
	}
	if st.pendingDemand == nil {
		st.pendingDemand = make(map[topology.NodeID]demandSnapshot)
	}
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
	mu sync.Mutex

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

//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) dir(d topology.Direction) *dirState { return &n.dirs[d] }

// ID returns the node's identifier.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) ID() topology.NodeID { return n.id }

//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) nextMsgID() uint16 {
	n.msgID++
	return n.msgID
}

//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) isGateway() bool { return n.parent == topology.None }

// reject counts an adjustment the node could not satisfy, in both the
// fleet tally (Fleet.Rejections) and the metrics registry.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) reject() {
	n.sh.rejections.Add(1)
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
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
	n.mu.Lock()
	defer n.mu.Unlock()
	if h := n.sh.hooks.Load(); h != nil && h.heard != nil {
		// Any delivered message is liveness evidence for the detector;
		// keepalive probes (POST /ka) carry nothing else and resolve to no
		// route below.
		h.heard(from)
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
	n.mu.Lock()
	defer n.mu.Unlock()
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) stampPending(st *dirState, layer int, now float64) {
	if st.pendingSince == nil {
		st.pendingSince = make(map[int]float64)
	}
	if _, stamped := st.pendingSince[layer]; !stamped {
		n.sh.pending.Add(1)
	}
	st.pendingSince[layer] = now
}

// clearPending drops layer's escalation stamp (committed, unwound or
// aborted) and takes it out of the fleet's in-flight tally.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) clearPending(st *dirState, layer int) {
	if _, stamped := st.pendingSince[layer]; stamped {
		delete(st.pendingSince, layer)
		n.sh.pending.Add(-1)
	}
}

// unwindPending rolls one layer's in-flight adjustment state back to the
// last committed layout: the pending recomposition is dropped, own-layer
// provisional demand raises revert to their snapshots, and requests that
// deferred behind the escalation replay immediately. Shared by the
// transport give-up path (HandleSendFailure) and the adjustment watchdog
// (abortStale) — both end an escalation whose grant will never come.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) unwindPending(d topology.Direction, layer int) {
	st := n.dir(d)
	if layer == n.ownLayer {
		// A dead own-layer escalation: the grant will never come, so the
		// provisional link-demand increases revert.
		for c, snap := range st.pendingDemand {
			st.demand[c] = snap.cells
			st.topRate[c] = snap.topRate
			delete(st.pendingDemand, c)
		}
		st.demandSince = 0
	}
	delete(st.pendingLayouts, layer)
	delete(st.pendingComps, layer)
	n.clearPending(st, layer)
	if q := st.deferred[layer]; len(q) > 0 {
		delete(st.deferred, layer)
		for _, da := range q {
			n.hostChildComponent(da.from, d, layer, da.comp)
		}
	}
	if debugChecks {
		// The rollback must land on a consistent committed state: the
		// committed layout still fits the granted partition.
		if region, ok := st.parts[layer]; ok && layer != n.ownLayer {
			if !core.LayoutValid(region.Slots, region.Channels, st.layouts[layer], st.childComps[layer]) {
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
	n.mu.Lock()
	defer n.mu.Unlock()
	aborted := 0
	for _, d := range topology.Directions() {
		st := n.dir(d)
		// Collect first: unwindPending mutates pendingSince (deletes the
		// aborted layer, re-stamps layers its deferred replays re-escalate),
		// and map range order is not deterministic.
		var stale []int
		for layer, since := range st.pendingSince {
			if now-since >= deadline {
				stale = append(stale, layer)
			}
		}
		sort.Ints(stale)
		for _, layer := range stale {
			aborted++
			n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricAborts))
			if tr := n.sh.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindAgentAbort).WithNode(int(n.id)).WithPeer(int(n.parent)).
					WithLayer(layer).WithDetail(d.String()))
			}
			n.reject()
			n.unwindPending(d, layer)
		}
		if st.demandSince != 0 && now-st.demandSince >= deadline && len(st.pendingDemand) > 0 {
			aborted++
			n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricAborts))
			if tr := n.sh.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindAgentAbort).WithNode(int(n.id)).WithPeer(int(n.parent)).
					WithLayer(n.ownLayer).WithDetail(d.String()))
			}
			n.reject()
			n.unwindPending(d, n.ownLayer)
		}
	}
	return aborted
}

// dropDeadChild removes a child the failure detector declared dead, as if
// a DELETE /intf had arrived from it: its demand and components disappear
// and the own-layer schedule shrinks. Idempotent (an unknown child is a
// no-op).
func (n *Node) dropDeadChild(c topology.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onChildLeave(c)
}

// now reads the deployment's virtual clock; ok is false while none is bound
// (no detector, no BindVirtualTime), and stamping is then skipped.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) now() (t float64, ok bool) {
	if h := n.sh.hooks.Load(); h != nil && h.vnow != nil {
		return h.vnow(), true
	}
	return 0, false
}

// start kicks off the static phase at this node: non-leaf nodes whose
// children are all leaves can compute and report immediately.
func (n *Node) start() {
	n.mu.Lock()
	defer n.mu.Unlock()
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) onInterfaceReport(m proto.InterfaceReport) {
	if !containsNode(n.children, m.Owner) {
		// Not a child here: this node dropped the sender as dead (or never
		// hosted it) and the sender has not noticed yet. Only a Join report
		// attaches a subtree — the sender re-registers through that path
		// when it is readmitted — so the stray is dropped and counted.
		n.sh.metrics.Inc(obs.NodeKey(int(n.id), obs.MetricStrayReports))
		return
	}
	// A current child's report is always processable, also at a node whose
	// maps are still nil.
	n.dir(topology.Uplink).ensure()
	n.dir(topology.Downlink).ensure()
	up, okU := n.dir(topology.Uplink).childIfaces[m.Owner]
	down, okD := n.dir(topology.Downlink).childIfaces[m.Owner]
	if okU && okD && dirIfaceEqual(up, m.Up) && dirIfaceEqual(down, m.Down) &&
		len(n.dir(topology.Uplink).childIfaces) >= len(n.nonLeaf) {
		return // duplicate of an already-consumed report: recomputing would re-forward
	}
	n.dir(topology.Uplink).childIfaces[m.Owner] = m.Up
	n.dir(topology.Downlink).childIfaces[m.Owner] = m.Down
	if len(n.dir(topology.Uplink).childIfaces) < len(n.nonLeaf) {
		return
	}
	n.computeAndForwardInterface()
}

// computeAndForwardInterface runs interface generation (§IV-B) for both
// directions, then reports upward or allocates at the gateway.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
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

//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) computeInterface(d topology.Direction) {
	st := n.dir(d)
	comps := make([]core.Component, 0, n.maxLayer-n.ownLayer+1)
	demands := make([]int, 0, len(n.children))
	for _, c := range n.children {
		demands = append(demands, st.demand[c])
	}
	comps = append(comps, core.OwnLayerComponent(demands))
	for layer := n.ownLayer + 1; layer <= n.maxLayer; layer++ {
		children := make([]core.ChildComponent, 0, len(n.nonLeaf))
		byChild := make(map[topology.NodeID]core.Component)
		for _, c := range n.nonLeaf {
			ci, ok := st.childIfaces[c]
			if !ok {
				continue
			}
			idx := layer - ci.FirstLayer
			if idx < 0 || idx >= len(ci.Comps) || ci.Comps[idx].Empty() {
				continue
			}
			children = append(children, core.ChildComponent{Child: c, Comp: ci.Comps[idx]})
			byChild[c] = ci.Comps[idx]
		}
		comp, layout, err := core.Compose(children, n.sh.frame.Channels)
		if err != nil {
			comp, layout = core.Component{}, core.Layout{}
		}
		comps = append(comps, comp)
		st.layouts[layer] = layout
		st.childComps[layer] = byChild
	}
	st.iface = proto.DirInterface{FirstLayer: n.ownLayer, Comps: comps}
}

// allocateRoot is the gateway's partition allocation (§IV-C).
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) allocateRoot() {
	up := core.Interface{Owner: n.id, FirstLayer: n.dir(topology.Uplink).iface.FirstLayer, Comps: n.dir(topology.Uplink).iface.Comps}
	down := core.Interface{Owner: n.id, FirstLayer: n.dir(topology.Downlink).iface.FirstLayer, Comps: n.dir(topology.Downlink).iface.Comps}
	alloc, err := core.AllocateRoot(up, down, n.sh.frame, false, n.sh.rootGap)
	if err != nil {
		n.reject()
		return
	}
	for dl, region := range alloc.Partitions {
		n.dir(dl.Direction).parts[dl.Layer] = region
	}
	n.settle()
}

// settle consumes this node's partitions: RM assignment at the own layer,
// splitting and dissemination at deeper layers (one POST /part per
// non-leaf child).
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) settle() {
	type grant struct {
		entries []proto.PartitionEntry
	}
	grants := make(map[topology.NodeID]*grant)
	for _, d := range topology.Directions() {
		st := n.dir(d)
		layers := sortedLayers(st.parts)
		for _, layer := range layers {
			region := st.parts[layer]
			if layer == n.ownLayer {
				n.assignOwn(d)
				continue
			}
			split, err := core.SplitPartition(region, st.layouts[layer], st.childComps[layer])
			if err != nil {
				continue
			}
			if st.sentRegions[layer] == nil {
				st.sentRegions[layer] = make(map[topology.NodeID]schedule.Region)
			}
			for child, r := range split {
				st.sentRegions[layer][child] = r
				if grants[child] == nil {
					grants[child] = &grant{}
				}
				grants[child].entries = append(grants[child].entries, proto.PartitionEntry{
					Direction: d, Layer: layer, Region: r,
				})
			}
		}
	}
	// Every non-leaf child gets a PartitionSet (possibly empty) so the
	// static phase terminates even in zero-demand subtrees.
	for _, c := range n.nonLeaf {
		g := grants[c]
		var entries []proto.PartitionEntry
		if g != nil {
			entries = g.entries
		}
		n.send(c, coap.POST, optsPartition, proto.EncodePartitionSet(proto.PartitionSet{Entries: entries}))
	}
	if debugChecks {
		n.debugCheckAssignments("settle")
		for _, d := range topology.Directions() {
			for layer := range n.dir(d).parts {
				if layer != n.ownLayer {
					n.debugCheckGrants("settle", d, layer)
				}
			}
		}
	}
}

// onPartitionSet installs the partitions granted by the parent and
// continues the top-down phase. A duplicated delivery (every entry equal to
// the installed partition) is dropped: re-running settle would re-send the
// whole subtree's PartitionSets and amplify one duplicate into a flood.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) onPartitionSet(m proto.PartitionSet) {
	if n.settledOnce {
		dup := true
		for _, e := range m.Entries {
			if cur, ok := n.dir(e.Direction).parts[e.Layer]; !ok || cur != e.Region {
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
		st := n.dir(e.Direction)
		st.ensure() // see applyPartition
		st.parts[e.Layer] = e.Region
	}
	n.settle()
}

// assignOwn runs RM assignment inside the own-layer partition and notifies
// children whose cells changed.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) assignOwn(d topology.Direction) {
	st := n.dir(d)
	region, ok := st.parts[n.ownLayer]
	demands := make([]core.LinkDemand, 0, len(n.children))
	total := 0
	for _, c := range n.children {
		demands = append(demands, core.LinkDemand{
			Link:    topology.Link{Child: c, Direction: d},
			Cells:   st.demand[c],
			TopRate: st.topRate[c],
		})
		total += st.demand[c]
	}
	if !ok {
		if total == 0 {
			st.assignment = make(map[topology.NodeID][]schedule.Cell)
			n.publish(d)
		}
		return
	}
	assignment, err := core.AssignCells(region, demands)
	if err != nil {
		// Mid-adjustment underfit: the demands no longer fit the partition
		// (an escalation for the growth is in flight). The region itself may
		// still have moved with this grant, and the vacated slots can
		// already belong to a sibling — prune any cells the new region no
		// longer covers and tell those children. The escalation's final
		// grant re-runs the full assignment.
		for _, c := range n.children {
			cells := st.assignment[c]
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
			st.assignment[c] = kept
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
	next := make(map[topology.NodeID][]schedule.Cell, len(assignment))
	for l, cells := range assignment {
		next[l.Child] = cells
	}
	for _, c := range n.children {
		if !cellsEqual(st.assignment[c], next[c]) {
			if tr := n.sh.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindAgentAssign).WithNode(int(n.id)).WithPeer(int(c)).
					WithLayer(n.ownLayer).WithDetail(fmt.Sprintf("%s cells=%d", d, len(next[c]))))
			}
			n.send(c, coap.POST, optsSchedule, proto.EncodeScheduleNotice(proto.ScheduleNotice{
				Direction: d, Cells: next[c],
			}))
		}
	}
	st.assignment = next
	n.publish(d)
	n.debugCheckAssignments("assignOwn")
}

// publish mirrors direction d's non-empty cell assignments into the fleet
// view, replacing what this node published for d before. It runs after
// every write to dirState.assignment, so the view equals a walk over all
// agents at every instant and Fleet.BuildSchedule never visits a node.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) publish(d topology.Direction) {
	var links []linkCells
	for child, cells := range n.dir(d).assignment {
		if len(cells) > 0 {
			links = append(links, linkCells{child: child, cells: cells})
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].child < links[j].child })
	n.sh.view.set(n.id, d, links)
}

// debugCheckAssignments validates that every non-empty own-layer cell
// assignment sits inside the own-layer partition, in both directions. This
// must hold at every quiescent point of the protocol, even mid-adjustment.
// Compiled out unless built with -tags harpdebug; callers hold n.mu.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) debugCheckAssignments(op string) {
	if !debugChecks {
		return
	}
	for _, d := range topology.Directions() {
		st := n.dir(d)
		own, hasOwn := st.parts[n.ownLayer]
		for child, cells := range st.assignment {
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
// arrives. Compiled out unless built with -tags harpdebug; callers hold
// n.mu.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) debugCheckGrants(op string, d topology.Direction, layer int) {
	if !debugChecks {
		return
	}
	st := n.dir(d)
	byChild := st.sentRegions[layer]
	region, ok := st.parts[layer]
	ids := make([]topology.NodeID, 0, len(byChild))
	for child, r := range byChild {
		if r.Empty() {
			continue
		}
		if !ok || !region.ContainsRegion(r) {
			panic(fmt.Sprintf("harpdebug: node %d after %s: granted %v to child %d outside its layer-%d %s partition",
				n.id, op, r, child, layer, d))
		}
		ids = append(ids, child)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
	if a.FirstLayer != b.FirstLayer || a.OwnDemand != b.OwnDemand || len(a.Comps) != len(b.Comps) {
		return false
	}
	for i := range a.Comps {
		if a.Comps[i] != b.Comps[i] {
			return false
		}
	}
	return true
}

func cellsEqual(a, b []schedule.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedLayers(m map[int]schedule.Region) []int {
	out := make([]int, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// SetChildDemand is the traffic-change entry point (§V): the parent of the
// affected link updates the requirement and performs local schedule update,
// or escalates a partition adjustment.
func (n *Node) SetChildDemand(child topology.NodeID, d topology.Direction, cells int, topRate float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !containsNode(n.children, child) {
		return fmt.Errorf("agent: node %d has no child %d", n.id, child)
	}
	if cells < 0 {
		return fmt.Errorf("agent: negative demand %d", cells)
	}
	n.applyChildDemand(child, d, cells, topRate)
	return nil
}

// applyChildDemand is SetChildDemand's body; callers hold n.mu.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) applyChildDemand(child topology.NodeID, d topology.Direction, cells int, topRate float64) {
	st := n.dir(d)
	old := st.demand[child]
	oldRate := st.topRate[child]
	st.demand[child] = cells
	st.topRate[child] = topRate
	if cells <= old {
		n.assignOwn(d) // Release: cells freed locally.
		return
	}
	total := 0
	for _, c := range n.children {
		total += st.demand[c]
	}
	if region, ok := st.parts[n.ownLayer]; ok && total <= region.CellCount() {
		n.assignOwn(d) // Case 1: local schedule update.
		return
	}
	// Case 2: escalate with the grown own-layer component. The increase is
	// provisional until the parent grants the space; snapshot the old value
	// so an unreachable parent's give-up can revert it.
	if _, ok := st.pendingDemand[child]; !ok {
		st.pendingDemand[child] = demandSnapshot{cells: old, topRate: oldRate}
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
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
	n.mu.Lock()
	defer n.mu.Unlock()
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
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) onAdjustRequest(from topology.NodeID, m proto.AdjustRequest) {
	layer := m.Layer
	if layer == n.ownLayer && containsNode(n.children, from) {
		// A child reports a new requirement for its own link (RequestDemand):
		// this is a link-demand change handled exactly like SetChildDemand.
		n.applyChildDemand(from, m.Direction, m.Comp.Slots, float64(m.Comp.Slots))
		return
	}
	n.hostChildComponent(from, m.Direction, layer, m.Comp)
}

// hostChildComponent places a child's (grown or newly appearing) component
// at one layer: Alg. 2 inside the current partition when possible,
// otherwise minimal extension and escalation (or in-place extension at the
// gateway).
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) hostChildComponent(from topology.NodeID, d topology.Direction, layer int, comp core.Component) {
	st := n.dir(d)
	if cur, ok := st.childComps[layer][from]; ok && cur == comp {
		if _, granted := st.sentRegions[layer][from]; granted {
			return // already hosted unchanged (e.g. a rejoining child): re-laying out would shuffle siblings
		}
	}
	if _, busy := st.pendingLayouts[layer]; busy {
		// An escalation for this layer is in flight: its pending layout was
		// computed without this request, and recomputing now would clobber
		// it. Queue the request; applyPartition replays it after the grant.
		st.deferred[layer] = append(st.deferred[layer], deferredAdjust{from: from, comp: comp})
		return
	}
	if region, ok := st.parts[layer]; ok {
		newLayout, moved, fits := core.AdjustLayout(region.Slots, region.Channels,
			st.layouts[layer], st.childComps[layer], from, comp)
		if fits {
			if st.childComps[layer] == nil {
				st.childComps[layer] = make(map[topology.NodeID]core.Component)
			}
			st.childComps[layer][from] = comp
			st.layouts[layer] = newLayout
			if st.sentRegions[layer] == nil {
				st.sentRegions[layer] = make(map[topology.NodeID]schedule.Region)
			}
			for _, child := range moved {
				c := st.childComps[layer][child]
				off := newLayout[child]
				r := c.Region(region.Slot+off.Slot, region.Channel+off.Channel)
				st.sentRegions[layer][child] = r
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
		if !n.rootHost(d, layer, from, comp) {
			n.reject()
		}
		return
	}
	// Grow this node's component at the layer just enough to host the
	// increase, keeping siblings in place, and escalate the enlarged
	// component; the new layout commits when the parent grants the space.
	merged := make(map[topology.NodeID]core.Component, len(st.childComps[layer])+1)
	for id, c := range st.childComps[layer] {
		merged[id] = c
	}
	merged[from] = comp
	var hostComp core.Component
	if region, ok := st.parts[layer]; ok {
		hostComp = core.Component{Slots: region.Slots, Channels: region.Channels}
	}
	grown, layout, ok := core.MinimalExtension(hostComp, st.layouts[layer], st.childComps[layer], from, comp, n.sh.frame.Channels)
	if !ok {
		n.reject()
		return
	}
	st.pendingComps[layer] = merged
	st.pendingLayouts[layer] = layout
	if now, ok := n.now(); ok {
		n.stampPending(st, layer, now)
	}
	n.escalate(d, layer, grown)
}

// onChildLeave handles DELETE /intf: the child (and its subtree) detached —
// the release case of §V. Its components disappear from every layer; the
// freed cells stay idle inside this branch's partitions, and the own-layer
// schedule shrinks.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) onChildLeave(from topology.NodeID) {
	if !containsNode(n.children, from) {
		return
	}
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentLeave).WithNode(int(n.id)).WithPeer(int(from)))
	}
	n.children = removeNode(n.children, from)
	n.nonLeaf = removeNode(n.nonLeaf, from)
	for _, d := range topology.Directions() {
		st := n.dir(d)
		delete(st.demand, from)
		delete(st.topRate, from)
		delete(st.childIfaces, from)
		for layer := range st.childComps {
			delete(st.childComps[layer], from)
		}
		for layer := range st.layouts {
			delete(st.layouts[layer], from)
		}
		for layer := range st.sentRegions {
			delete(st.sentRegions[layer], from)
		}
		n.assignOwn(d)
	}
}

// onChildJoin handles a Join-flagged POST /intf: a node (with its subtree)
// attached under this node after a topology change. Every layer of the
// reported interface is hosted through the ordinary adjustment machinery,
// then the new link's demand is absorbed like a traffic change.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) onChildJoin(m proto.InterfaceReport) {
	// A Join from a node already in children is a crashed child rejoining
	// (a reparented node arrives unknown): after hosting it, re-send the
	// state its reboot lost, which the send-dedup caches would suppress.
	rejoining := containsNode(n.children, m.Owner)
	// This node is about to host a child: a former leaf has all-nil maps.
	n.dir(topology.Uplink).ensure()
	n.dir(topology.Downlink).ensure()
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentJoin).WithNode(int(n.id)).WithPeer(int(m.Owner)).
			WithDetail(fmt.Sprintf("rejoin=%t", rejoining)))
	}
	if !rejoining {
		n.children = insertNode(n.children, m.Owner)
	}
	dirIfaces := [2]proto.DirInterface{m.Up, m.Down}
	hasComps := false
	for _, di := range dirIfaces {
		for _, c := range di.Comps {
			if !c.Empty() {
				hasComps = true
			}
		}
	}
	if hasComps {
		if !containsNode(n.nonLeaf, m.Owner) {
			n.nonLeaf = insertNode(n.nonLeaf, m.Owner)
		}
		n.dir(topology.Uplink).childIfaces[m.Owner] = m.Up
		n.dir(topology.Downlink).childIfaces[m.Owner] = m.Down
	}
	for _, d := range topology.Directions() {
		di := dirIfaces[d]
		for i, comp := range di.Comps {
			if comp.Empty() {
				continue
			}
			n.hostChildComponent(m.Owner, d, di.FirstLayer+i, comp)
		}
		if rejoining && n.dir(d).demand[m.Owner] == di.OwnDemand {
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
// (sentRegions, the cellsEqual check) see no change and would stay silent;
// the child's duplicate guards make the re-sends safe if it did not
// actually reboot.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) resyncChild(child topology.NodeID) {
	for _, d := range topology.Directions() {
		st := n.dir(d)
		layers := make([]int, 0, len(st.sentRegions))
		for layer := range st.sentRegions {
			if _, ok := st.sentRegions[layer][child]; ok {
				layers = append(layers, layer)
			}
		}
		sort.Ints(layers)
		for _, layer := range layers {
			n.send(child, coap.PUT, optsPartition, proto.EncodePartitionUpdate(proto.PartitionUpdate{
				Direction: d, Layer: layer, Region: st.sentRegions[layer][child],
			}))
		}
		if cells := st.assignment[child]; len(cells) > 0 {
			n.send(child, coap.POST, optsSchedule, proto.EncodeScheduleNotice(proto.ScheduleNotice{
				Direction: d, Cells: cells,
			}))
		}
	}
}

func removeNode(ids []topology.NodeID, id topology.NodeID) []topology.NodeID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func insertNode(ids []topology.NodeID, id topology.NodeID) []topology.NodeID {
	out := append(ids, id)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Root-level adjustment at the gateway agent uses the centralized planner's
// layout (core.ReflowRoot, core.RootHost): layer partitions are an ordered
// sequence of slot intervals (compliant order, time-disjoint because
// adjacent layers share nodes); a grown layer extends in place and later
// intervals shift only as far as needed. Nothing is applied unless the
// adjustment fits.

// rootParts returns the gateway's current layer partitions per direction.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) rootParts() [2]map[int]schedule.Region {
	return [2]map[int]schedule.Region{n.dir(topology.Uplink).parts, n.dir(topology.Downlink).parts}
}

// rootWiden grows the gateway's own-layer partition to the requested width.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
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

// rootHost extends the gateway's layer partition just enough to host a
// grown child component, keeping that layer's other children in place.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) rootHost(d topology.Direction, layer int, cur topology.NodeID, curComp core.Component) bool {
	st := n.dir(d)
	newLayout, placements, ok := core.RootHost(n.rootParts(), core.DirLayer{Direction: d, Layer: layer},
		st.layouts[layer], st.childComps[layer], cur, curComp, n.sh.frame)
	if !ok {
		return false
	}
	if st.childComps[layer] == nil {
		st.childComps[layer] = make(map[topology.NodeID]core.Component)
	}
	st.childComps[layer][cur] = curComp
	st.layouts[layer] = newLayout
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
	if cur, ok := n.dir(m.Direction).parts[m.Layer]; ok && cur == m.Region {
		return
	}
	n.applyPartition(m.Direction, m.Layer, m.Region)
}

// applyPartition installs a new partition at one layer, committing any
// pending recomposition, and pushes the consequences downward.
//
//harplint:locked — caller holds n.mu (Handle/Deploy own the critical section).
func (n *Node) applyPartition(d topology.Direction, layer int, region schedule.Region) {
	st := n.dir(d)
	// The parent's grant is authoritative even at a node whose maps are nil:
	// a relay that rebooted after its children were adopted away is a leaf
	// now, yet its parent still re-syncs the regions it holds for it.
	st.ensure()
	st.parts[layer] = region
	if tr := n.sh.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindAgentGrant).WithNode(int(n.id)).WithLayer(layer).
			WithDetail(fmt.Sprintf("%s slot=%d slots=%d ch=%d", d, region.Slot, region.Slots, region.Channels)))
	}
	if pl, ok := st.pendingLayouts[layer]; ok {
		st.layouts[layer] = pl
		st.childComps[layer] = st.pendingComps[layer]
		delete(st.pendingLayouts, layer)
		delete(st.pendingComps, layer)
		if since, stamped := st.pendingSince[layer]; stamped {
			// Escalation→commit latency: from hosting the escalated child
			// component (the pendingSince stamp) to this grant committing
			// the recomposition, in milli-slots.
			if now, ok := n.now(); ok {
				n.sh.metrics.Dist(obs.Key(obs.MetricEscCommitMs)).Observe(int64((now - since) * 1000))
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
		for c := range st.pendingDemand {
			delete(st.pendingDemand, c)
		}
		st.demandSince = 0
		n.assignOwn(d)
		return
	}
	split, err := core.SplitPartition(region, st.layouts[layer], st.childComps[layer])
	if err != nil {
		return
	}
	if st.sentRegions[layer] == nil {
		st.sentRegions[layer] = make(map[topology.NodeID]schedule.Region)
	}
	for _, child := range sortedRegionIDs(split) {
		r := split[child]
		if prev, ok := st.sentRegions[layer][child]; ok && prev == r {
			continue // unchanged: no message
		}
		st.sentRegions[layer][child] = r
		n.send(child, coap.PUT, optsPartition, proto.EncodePartitionUpdate(proto.PartitionUpdate{
			Direction: d, Layer: layer, Region: r,
		}))
	}
	n.debugCheckGrants("applyPartition", d, layer)
	// Replay adjust requests that queued behind the just-committed
	// escalation; against the new partition they either fit or escalate
	// afresh.
	if q := st.deferred[layer]; len(q) > 0 {
		delete(st.deferred, layer)
		for _, da := range q {
			n.hostChildComponent(da.from, d, layer, da.comp)
		}
	}
}

// Leave announces this node's detachment to its current parent (the
// DELETE /intf of a parent switch) without touching local state; the fleet
// rewires the structure afterwards.
func (n *Node) Leave() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isGateway() {
		return
	}
	n.send(n.parent, coap.DELETE, optsInterface, nil)
}

// setStructure installs recomputed tree coordinates after a topology
// change.
func (n *Node) setStructure(parent topology.NodeID, ownLayer, maxLayer int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if parent != n.parent {
		// A new parent means past degradations no longer describe the
		// current uplink.
		clear(n.giveUps)
	}
	n.parent = parent
	n.ownLayer = ownLayer
	n.maxLayer = maxLayer
}

// resetResources clears all layer-keyed resource state (used when a moved
// subtree re-joins at a different depth). Link demands are preserved.
func (n *Node) resetResources() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range topology.Directions() {
		st := n.dir(d)
		// Wipe everything but the configured link demands (reloaded by the
		// caller) and the granted own-link cells; a leaf drops back to all-nil
		// maps, a parent gets fresh empty ones.
		n.sh.pending.Add(-int64(len(st.pendingSince)))
		*st = dirState{demand: st.demand, topRate: st.topRate, myCells: st.myCells}
		n.publish(d)
		if len(n.children) > 0 {
			st.ensure()
		}
	}
	n.settledOnce = false
	clear(n.giveUps)
}

// startJoin primes the node to re-attach: its next interface report carries
// the Join flag and the given own-link demands, and nodes whose children
// are all leaves recompute immediately (deeper subtrees report bottom-up).
func (n *Node) startJoin(upDemand, downDemand int) {
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[topology.NodeID][]schedule.Cell, len(n.dir(d).assignment))
	for c, cells := range n.dir(d).assignment {
		out[c] = append([]schedule.Cell(nil), cells...)
	}
	return out
}

// Partition returns the node's granted partition at a layer.
func (n *Node) Partition(d topology.Direction, layer int) (schedule.Region, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.dir(d).parts[layer]
	return r, ok
}

// MyCells returns the cells granted by the parent for this node's own link.
func (n *Node) MyCells(d topology.Direction) []schedule.Cell {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]schedule.Cell(nil), n.dir(d).myCells...)
}

func containsNode(ids []topology.NodeID, id topology.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func sortedRegionIDs(m map[topology.NodeID]schedule.Region) []topology.NodeID {
	out := make([]topology.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
