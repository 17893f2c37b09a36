// Package transport carries encoded CoAP messages between HARP node
// agents over Bus, a deterministic virtual-time transport. Message latency
// models the management sub-frame of §VI-A — a node's protocol message
// waits for the node's next management cell, i.e. a uniform fraction of a
// slotframe per hop — and time is tracked in slots, which is how the
// Table II "Time" and "SF" columns are measured. Deliveries are events on
// a vclock.Clock; with NewBusOnClock the bus shares that clock with the
// MAC simulator, so control-plane messages and data-plane slots interleave
// on one timeline (the co-simulation of §VI-C).
//
// The bus moves raw bytes: messages are CoAP-encoded on send into a pooled
// envelope and parsed at the receiver, so the full codec path is exercised.
// The parse is in place (coap.ParseBorrowed): the message a Handler gets
// aliases the envelope's wire buffer and is good for that call only — see
// Handler. In steady state a message costs no allocation and no hash-map
// operation beyond the two NodeID → slot translations of Send's signature
// (DESIGN.md, "What a message costs").
//
// Per-pair state — the FIFO clock, the NSTART=1 exchange in progress and
// its backlog — lives with the sender, in a small table sorted by peer
// (nodeTraffic.peers), as it does on a device; nothing on the bus is keyed
// by node pair except the scripted link outages. Both ends of a send must
// therefore be registered.
//
// # Fault model
//
// By default the bus delivers every message exactly once — the ideal
// channel all existing baselines are measured on. SetFaults turns on
// per-delivery Bernoulli loss and duplication, drawn from a
// dedicated RNG stream ("transport.fault") so enabling faults never
// perturbs the latency draws of a lossless run; Crash/Restart script node
// outages. EnableReliability layers RFC 7252 §4.2 confirmable-message
// reliability on top: non-confirmable requests are upgraded to CON,
// acknowledged by the receiving bus end, retransmitted with exponential
// backoff on the virtual clock, and deduplicated by Message-ID at the
// receiver. One exchange is outstanding per ordered node pair (NSTART = 1,
// §4.7), which also preserves the per-pair FIFO ordering the agents rely
// on. ACKs are control traffic: they are not tallied in the delivery
// counters (Delivered/Count), so protocol-overhead counts stay comparable
// with the paper's.
//
// # Observability
//
// All counters live in a unified internal/obs registry (Metrics), written
// through obs.Cell references resolved once; the legacy accessors are views
// over it. SetTracer attaches a virtual-time event tracer that records
// every tx/rx/ACK/retransmission/fault with a causal parent span — see the
// obs package and DESIGN.md's Observability section. With no tracer
// attached the hook sites cost one nil check and zero allocations.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// Handler consumes a delivered message. Implementations may call Send from
// within Handle. msg is borrowed: its Options, Token and Payload alias the
// bus's wire buffer and are valid only until Handle returns — a handler
// that keeps any of them copies first (msg.Clone).
type Handler interface {
	Handle(from topology.NodeID, msg coap.Message)
}

// FailureHandler is optionally implemented by a Handler that wants to hear
// when one of its confirmable messages was given up on (MAX_RETRANSMIT
// exhausted, e.g. the peer crashed). msg is the message that was lost; the
// agent uses this to unwind the state the request had reserved instead of
// waiting forever for a reply. Unlike Handle's, this msg owns its bytes.
type FailureHandler interface {
	HandleSendFailure(to topology.NodeID, msg coap.Message)
}

// Network is the sending side exposed to agents.
type Network interface {
	// Send transmits a message; delivery is asynchronous.
	Send(from, to topology.NodeID, msg coap.Message) error
}

// ErrUnknownNode is returned by Send and SendBackground when either end was
// never Registered.
var ErrUnknownNode = errors.New("transport: unknown node")

// envelope is one in-flight message. Envelopes are pooled: refs counts the
// live references (scheduled delivery copies plus, for confirmable
// messages, the owning exchange), and hitting zero returns the envelope —
// wire buffer included — to the bus's free list, so a steady-state run
// recycles a handful of envelopes instead of allocating one per message.
type envelope struct {
	from, to topology.NodeID
	// fi, ti are the bus's dense slots for from/to (see Bus.nodes); the
	// delivery path addresses per-node state by slot, not map lookup.
	fi, ti int32
	wire   []byte
	mid    uint16
	// span is the coap.tx trace span the message was sent under (0 when
	// tracing is off); every later event of the message — delivery,
	// fault, retransmission, ACK — is parented to it.
	span uint64
	// refs is the pool reference count.
	refs int32
	// reliable marks a confirmable application message owned by an
	// exchange: its in-flight slot is retired when the exchange resolves,
	// not when a copy is delivered.
	reliable bool
	// control marks transport-generated traffic (ACKs): never tallied,
	// never holding an in-flight slot.
	control bool
}

// FaultConfig scripts the channel's misbehaviour. Drop and Dup are
// per-delivery Bernoulli probabilities; a duplicated delivery injects one
// extra copy after an independent management-cell latency. Seed drives the
// dedicated fault stream.
type FaultConfig struct {
	Drop float64
	Dup  float64
	Seed int64
}

// FaultStats counts what the channel and the reliability layer did. All
// fields are monotonic between ResetCounters calls.
type FaultStats struct {
	// Dropped counts deliveries lost to injected Bernoulli loss.
	Dropped int
	// Duplicated counts extra copies injected by duplication faults.
	Duplicated int
	// CrashDropped counts deliveries (and sends) discarded because the
	// node was crashed.
	CrashDropped int
	// Retransmissions counts CON copies retransmitted after an ACK timeout.
	Retransmissions int
	// DuplicatesSuppressed counts confirmable deliveries the receiver's
	// Message-ID dedup cache recognised and did not re-apply.
	DuplicatesSuppressed int
	// AcksDelivered counts ACK deliveries (control traffic, excluded from
	// Delivered/MessageCount).
	AcksDelivered int
	// GiveUps counts exchanges abandoned after MAX_RETRANSMIT.
	GiveUps int
	// DecodeErrors counts deliveries whose payload failed to decode; each
	// is also retrievable via Errors.
	DecodeErrors int
}

// CountKey identifies a message class in the delivery tally: the CoAP
// method plus the request path — the unit Table II and Fig. 12 count.
// Keeping the key structured (rather than a formatted string) keeps the
// per-delivery accounting off the allocator; String formats on demand.
type CountKey struct {
	Code coap.Code
	Path string
}

// String renders the key in the traditional "METHOD path" form.
func (k CountKey) String() string { return fmt.Sprintf("%s %s", k.Code, k.Path) }

// busExchange is one outstanding confirmable exchange on the bus: the
// envelope being retried, the RFC 7252 state machine, and the cancelable
// clock event of the pending retransmission timer.
type busExchange struct {
	env   *envelope
	ex    *coap.Exchange
	timer *vclock.Handle
	// start is the virtual time the exchange's first copy was sent,
	// feeding the CON round-trip distribution when the ACK settles it.
	start float64
	// backlog queues the confirmable sends the pair made while this
	// exchange was in progress (NSTART=1), oldest first; the exchange that
	// succeeds this one inherits the rest.
	backlog []*envelope
}

// Bus is the deterministic virtual-time transport. Delivery between any
// ordered pair of nodes is FIFO, as on the real substrate: a node's
// messages to one neighbour leave through its sequential management cells
// and cannot overtake each other. (Without this, a stale partition grant
// could overtake a newer one and corrupt the receiver's state.)
type Bus struct {
	clock *vclock.Clock
	rng   *rand.Rand

	// nodes holds per-node state in dense slots assigned in Register
	// order; nodeIdx maps a NodeID to its slot. Callers register in a
	// deterministic order (Fleet.Deploy walks tree.Nodes()), so slot
	// assignment is reproducible.
	nodes   []busNode
	nodeIdx map[topology.NodeID]int32

	// inFlight counts messages whose outcome is unsettled; co-simulation
	// harnesses poll it (Pending) to detect protocol quiescence. An
	// unreliable message settles at its delivery event; a confirmable one
	// settles when its exchange resolves or gives up, so Pending()==0
	// really means no retransmission can wake the protocol up again.
	inFlight int
	// errs records every delivery failure (decode errors); deliveries
	// keep flowing — one bad frame must not blackhole the rest of a run.
	errs []error

	// linkDown holds the directed pairs whose deliveries are currently
	// discarded (scripted link flaps / partitions), keyed by the packed
	// dense-slot pair (see pairKey); nil until the first SetLinkDown so the
	// clean-channel delivery path pays one nil check.
	linkDown map[uint64]bool

	// rxOpts is the option storage the delivery path parses into (see
	// deliver): deliveries are clock events and never nest, so one scratch
	// serves them all.
	rxOpts []coap.Option

	// envFree recycles settled envelopes (wire buffers included); see the
	// envelope type comment.
	envFree []*envelope
	// deliverPrimary/deliverDup are the prebound delivery callbacks passed
	// to vclock.ScheduleArgIn, bound once here so scheduling a delivery
	// allocates no closure.
	deliverPrimary func(any)
	deliverDup     func(any)
	// shardRouter, if set, picks the clock shard a delivery to a node is
	// scheduled on (the co-simulation routes by root subtree). Routing
	// never changes the dispatch order — vclock's global seq keeps the
	// (time, seq) pop sequence shard-blind — only which heap holds the
	// event.
	shardRouter func(topology.NodeID) int

	// slotsPerHop is the slotframe length; per-hop latency is sampled
	// uniformly in (0, slotsPerHop] — the wait for the sender's next
	// management cell.
	slotsPerHop int

	// Fault injection (nil faultRNG: clean channel, zero extra draws).
	faults   FaultConfig
	faultRNG *rand.Rand

	// Reliability (RFC 7252 §4.2), off unless EnableReliability ran.
	reliable bool
	params   coap.ReliabilityParams
	// retxRNG drives retransmission jitter and the latency of control/
	// retransmitted copies, so primary application-message latencies draw
	// the exact same "transport.bus" sequence as a run without reliability.
	retxRNG *rand.Rand
	// bgRNG is the background-send latency stream used when reliability is
	// off (see retxStream); nil until the first background send needs it.
	bgRNG *rand.Rand

	// metrics is the unified counter registry (internal/obs); the legacy
	// accessors — Count, Delivered, ParticipantCount, Faults —
	// are thin views over it, and co-simulation layers (agents, MAC)
	// share it so one registry holds a run's whole tally.
	metrics *obs.Registry
	// tracer records protocol events; nil (the default) is disabled and
	// costs one pointer check per hook site.
	tracer *obs.Tracer
	// cells are the bus's own counters, resolved once (see obs.Cell).
	cells busCells
	// classes holds one entry per delivered message class, in first-sight
	// order: a handful (Table I has six), so every lookup is a scan — per
	// delivery by the method and the path segment's bytes (classOf), for the
	// accessors and on first sight by key (classIndex).
	classes []msgClass
}

// busCells caches where the bus's run-global counters live in the registry.
type busCells struct {
	delivered, keepalives                     obs.Cell
	crashDropped, linkDropped, dropped        obs.Cell
	duplicated, decodeErrors, retransmissions obs.Cell
	dupSuppressed, acksDelivered, giveUps     obs.Cell
}

// msgClass is one message class's tally: its key, its registry kind
// (formatted once) and the counter's cell. seg is the sole path segment of
// a single-segment class (every Table I class), nil otherwise.
type msgClass struct {
	key  CountKey
	seg  []byte
	kind string
	cell obs.Cell
}

// busNode is one registered node's transport state, held in a dense slot.
type busNode struct {
	id      topology.NodeID
	handler Handler
	crashed bool
	// traffic is the state the node's own messages need, allocated when
	// it first sends or receives one: most nodes of a large fleet are
	// silent leaves and carry none.
	traffic *nodeTraffic
}

// nodeTraffic is what a node that has sent or received keeps: per-pair
// state lives here, on the sender, as it does on a device — not in
// fleet-wide tables.
type nodeTraffic struct {
	// peers is the node's state toward each node it has sent to, sorted by
	// the peer's slot and found by binary search: a tree node talks to its
	// parent and children, so the table is a few entries long, and a
	// gateway with thousands of children still looks one up in O(log n).
	peers []peer
	// dedup is the node's receiver-side Message-ID cache (reliable mode),
	// created on first confirmable delivery.
	dedup *coap.DedupCache
	// tx and rx are the cells of the node's Table II participant counters.
	tx, rx obs.Cell
}

// peer is a sender's state toward one destination.
type peer struct {
	slot int32 // the destination's dense slot
	// last is the FIFO clock: the delivery time of the latest copy queued
	// toward the peer. The next copy is delivered strictly after it.
	last float64
	// ex is the confirmable exchange in progress toward the peer (NSTART=1;
	// nil when idle). Its backlog holds the sends queued behind it.
	ex *busExchange
}

// pairKey packs an ordered (sender slot, receiver slot) pair into one map
// key word.
func pairKey(fi, ti int32) uint64 { return uint64(uint32(fi))<<32 | uint64(uint32(ti)) }

// trafficOf returns (allocating on first use) slot i's traffic state.
func (b *Bus) trafficOf(i int32) *nodeTraffic {
	t := b.nodes[i].traffic
	if t == nil {
		t = &nodeTraffic{} //harplint:allow hotpath a node's first message; every later one finds the state
		b.nodes[i].traffic = t
	}
	return t
}

// search returns the position of the first peer whose slot is not below
// the given one.
func (t *nodeTraffic) search(slot int32) int {
	lo, hi := 0, len(t.peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.peers[mid].slot < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// peerOf returns sender fi's state toward ti, or nil if fi never sent to
// ti. Like peerFor's, the pointer is good until fi first sends to a new
// peer (the table may move).
func (b *Bus) peerOf(fi, ti int32) *peer {
	t := b.nodes[fi].traffic
	if t == nil {
		return nil
	}
	if k := t.search(ti); k < len(t.peers) && t.peers[k].slot == ti {
		return &t.peers[k]
	}
	return nil
}

// peerFor is peerOf that enters the pair on first sight, keeping the table
// sorted.
func (b *Bus) peerFor(fi, ti int32) *peer {
	t := b.trafficOf(fi)
	k := t.search(ti)
	if k == len(t.peers) || t.peers[k].slot != ti {
		// First send on the pair. No copy was queued yet, so the FIFO clock
		// starts before any delivery time.
		t.peers = append(t.peers, peer{}) //harplint:allow hotpath first sight of a peer; every later send finds the entry
		copy(t.peers[k+1:], t.peers[k:])
		t.peers[k] = peer{slot: ti, last: -1}
	}
	return &t.peers[k]
}

// slot returns the dense slot of a registered node, or -1.
func (b *Bus) slot(id topology.NodeID) int32 {
	if i, ok := b.nodeIdx[id]; ok {
		return i
	}
	return -1
}

// takeEnv returns a pooled (or fresh) envelope with refs zero and the
// previous generation's wire buffer capacity.
func (b *Bus) takeEnv() *envelope {
	if n := len(b.envFree); n > 0 {
		e := b.envFree[n-1]
		b.envFree = b.envFree[:n-1]
		return e
	}
	return &envelope{} //harplint:allow hotpath pool refill; steady state recycles
}

// retainEnv adds one reference (a scheduled copy or an owning exchange).
func retainEnv(e *envelope) { e.refs++ }

// releaseEnv drops one reference; the last release clears the envelope and
// returns it (wire capacity kept) to the pool.
func (b *Bus) releaseEnv(e *envelope) {
	e.refs--
	if e.refs > 0 {
		return
	}
	if debugChecks {
		poison(e.wire)
	}
	wire := e.wire[:0]
	*e = envelope{wire: wire}
	b.envFree = append(b.envFree, e)
}

// poison overwrites a released wire buffer (harpdebug builds only).
func poison(wire []byte) {
	for i := range wire {
		wire[i] = 0xA5
	}
}

// NewBus builds a virtual-time bus on a private clock. slotframeSlots sets
// the per-hop latency scale; seed drives latency sampling.
func NewBus(slotframeSlots int, seed int64) (*Bus, error) {
	return NewBusOnClock(vclock.New(), slotframeSlots, seed)
}

// NewBusOnClock builds a bus whose deliveries are events on the given
// clock. Sharing the clock with a sim.Simulator (sim.BindClock) co-runs
// the HARP protocol with the data plane; the caller then drives the clock
// (or the simulator) instead of Bus.Run.
func NewBusOnClock(c *vclock.Clock, slotframeSlots int, seed int64) (*Bus, error) {
	if slotframeSlots <= 0 {
		return nil, fmt.Errorf("transport: non-positive slotframe length %d", slotframeSlots)
	}
	if c == nil {
		return nil, errors.New("transport: nil clock")
	}
	b := &Bus{
		clock:       c,
		nodeIdx:     make(map[topology.NodeID]int32),
		rng:         c.RNG(vclock.StreamBus, seed),
		slotsPerHop: slotframeSlots,
		metrics:     obs.NewRegistry(),
	}
	// Bound once: scheduling a delivery passes these through
	// vclock.ScheduleArgIn, so the per-message path allocates no closure.
	b.deliverPrimary = func(x any) { b.deliver(x.(*envelope), true) }
	b.deliverDup = func(x any) { b.deliver(x.(*envelope), false) }
	return b, nil
}

// SetShardRouter installs the clock-shard routing function for deliveries
// (nil restores everything-on-shard-0). The co-simulation routes each
// receiver's deliveries to its root subtree's shard; because vclock's
// dispatch order is shard-blind, any routing — including none — replays
// the same history.
func (b *Bus) SetShardRouter(fn func(topology.NodeID) int) { b.shardRouter = fn }

// SetTracer attaches a protocol-event tracer (nil detaches). The tracer
// must be bound to the bus's clock so event timestamps share its virtual
// timeline.
func (b *Bus) SetTracer(t *obs.Tracer) { b.tracer = t }

// Metrics returns the bus's registry. Co-simulation layers share it so
// agent and MAC series land next to the transport's, and ResetCounters
// clears them all together.
func (b *Bus) Metrics() *obs.Registry { return b.metrics }

// Register attaches a node's handler, assigning the node the next dense
// slot (re-registering an id replaces its handler in place).
func (b *Bus) Register(id topology.NodeID, h Handler) {
	if i, ok := b.nodeIdx[id]; ok {
		b.nodes[i].handler = h
		return
	}
	b.nodeIdx[id] = int32(len(b.nodes))
	b.nodes = append(b.nodes, busNode{id: id, handler: h})
}

// Clock returns the virtual clock deliveries are scheduled on.
//
//harplint:allow unused the agent tests (detector, crash, leave, view, concurrent) drive a NewBus clock through it
func (b *Bus) Clock() *vclock.Clock { return b.clock }

// Now returns the current virtual time in slots.
func (b *Bus) Now() float64 { return b.clock.Now() }

// Pending returns the number of unsettled messages: queued deliveries plus
// unresolved confirmable exchanges. Zero means the protocol has quiesced
// (no delivery or retransmission can trigger further sends).
func (b *Bus) Pending() int { return b.inFlight }

// Err returns the first delivery error, if any. A delivery error does not
// stop the bus; later ones are recorded too.
func (b *Bus) Err() error {
	if len(b.errs) > 0 {
		return b.errs[0]
	}
	return nil
}

// SetFaults configures channel fault injection. Drop/Dup of zero restores
// the clean channel; the fault stream ("transport.fault") is separate from
// the latency stream, so a clean-channel run makes exactly the same draws
// with or without this call.
func (b *Bus) SetFaults(cfg FaultConfig) {
	b.faults = cfg
	if cfg.Drop > 0 || cfg.Dup > 0 {
		b.faultRNG = b.clock.RNG(vclock.StreamFault, cfg.Seed)
	} else {
		b.faultRNG = nil
	}
}

// EnableReliability turns on confirmable-message reliability with the RFC
// 7252 defaults scaled to the bus's timebase: ACK_TIMEOUT is two
// slotframes (a send and its ACK each wait at most one slotframe for a
// management cell), ACK_RANDOM_FACTOR 1.5, MAX_RETRANSMIT 4. seed drives
// the "transport.retx" stream (retransmission jitter and control-copy
// latencies).
func (b *Bus) EnableReliability(seed int64) {
	b.EnableReliabilityWith(coap.DefaultReliability(2*float64(b.slotsPerHop)), seed)
}

// EnableReliabilityWith is EnableReliability with explicit parameters (in
// slots), for tests that want short timeouts.
func (b *Bus) EnableReliabilityWith(p coap.ReliabilityParams, seed int64) {
	b.reliable = true
	b.params = p
	b.retxRNG = b.clock.RNG(vclock.StreamRetx, seed)
}

// Crash takes a node off the air: deliveries to it are discarded (counted
// as CrashDropped) and its own pending sends — outstanding exchanges and
// backlogged messages — are abandoned, as a reboot loses RAM: a walk over
// the node's own peer table, whatever else the bus carries. Frames it
// already transmitted stay in flight.
func (b *Bus) Crash(id topology.NodeID) {
	i := b.slot(id)
	if i < 0 || b.nodes[i].crashed {
		return
	}
	b.nodes[i].crashed = true
	if tr := b.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindNodeCrash).WithNode(int(id)))
	}
	t := b.nodes[i].traffic
	if t == nil {
		return
	}
	for k := range t.peers {
		bx := t.peers[k].ex
		if bx == nil {
			continue
		}
		t.peers[k].ex = nil
		bx.timer.Cancel()
		b.inFlight -= 1 + len(bx.backlog)
		b.releaseEnv(bx.env) // the exchange's ownership reference
		for _, e := range bx.backlog {
			b.releaseEnv(e)
		}
	}
}

// Restart puts a crashed node back on the air with empty transport state
// (its Message-ID dedup cache is gone — reboots lose RAM, which is exactly
// what the dedup lifetime bound protects against).
func (b *Bus) Restart(id topology.NodeID) {
	if i := b.slot(id); i >= 0 {
		b.nodes[i].crashed = false
		if t := b.nodes[i].traffic; t != nil {
			t.dedup = nil
		}
	}
	if tr := b.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindNodeRestart).WithNode(int(id)))
	}
}

// Crashed reports whether the node is currently down.
func (b *Bus) Crashed(id topology.NodeID) bool {
	i := b.slot(id)
	return i >= 0 && b.nodes[i].crashed
}

// SetLinkDown takes the radio link between a and b off the air in both
// directions: copies already queued and copies transmitted while the link
// is down are discarded at delivery time (counted as MetricLinkDropped).
// Senders are not told — a lost CON copy is recovered by retransmission
// once the link heals, exactly like a channel fade.
func (b *Bus) SetLinkDown(x, y topology.NodeID) {
	xi, yi := b.slot(x), b.slot(y)
	if xi < 0 || yi < 0 {
		return
	}
	if b.linkDown == nil {
		b.linkDown = make(map[uint64]bool)
	}
	b.linkDown[pairKey(xi, yi)] = true
	b.linkDown[pairKey(yi, xi)] = true
}

// SetLinkUp heals a link downed by SetLinkDown (no-op if it was up).
func (b *Bus) SetLinkUp(x, y topology.NodeID) {
	xi, yi := b.slot(x), b.slot(y)
	if xi < 0 || yi < 0 || b.linkDown == nil {
		return
	}
	delete(b.linkDown, pairKey(xi, yi))
	delete(b.linkDown, pairKey(yi, xi))
}

// Send implements Network: the message is CoAP-encoded and queued with a
// management-cell latency. In reliable mode non-confirmable requests are
// upgraded to confirmable and tracked by an exchange; at most one exchange
// per ordered pair is in progress (NSTART=1), later ones queue behind it.
// Both ends must be registered: per-pair state lives with the sender.
func (b *Bus) Send(from, to topology.NodeID, msg coap.Message) error {
	fi, ti, err := b.ends(from, to)
	if err != nil {
		return err
	}
	if b.nodes[fi].crashed {
		b.inc(&b.cells.crashDropped, obs.MetricCrashDropped)
		if tr := b.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindFaultCrash).WithNode(int(from)).WithPeer(int(to)))
		}
		return nil
	}
	if b.reliable && msg.Type == coap.NonConfirmable && msg.Code.IsRequest() {
		msg.Type = coap.Confirmable
	}
	e, err := b.encode(from, to, fi, ti, msg)
	if err != nil {
		return err
	}
	if tr := b.tracer; tr.Enabled() {
		e.span = tr.Emit(obs.Ev(obs.KindCoapTx).WithNode(int(from)).WithPeer(int(to)).
			WithDetail(msg.Code.String() + " " + msg.Path()))
	}
	b.inFlight++
	if b.reliable && msg.Type == coap.Confirmable {
		e.reliable = true
		retainEnv(e) // the exchange (or its backlog slot) owns the envelope
		if bx := b.peerFor(fi, ti).ex; bx != nil {
			bx.backlog = append(bx.backlog, e)
			return nil
		}
		b.startExchange(e, nil)
		return nil
	}
	b.transmit(e, b.rng)
	return nil
}

// SendBackground transmits a message as control traffic: like an ACK it is
// never upgraded to confirmable, holds no in-flight slot (Pending()==0
// still means protocol quiescence) and is excluded from the delivery
// counters, but it rides the same channel — management-cell latency,
// per-pair FIFO, crash drops, link flaps and injected faults all apply.
// The failure detector's keepalives use this so enabling detection leaves
// every protocol-overhead count byte-identical.
//
//harplint:hotpath
func (b *Bus) SendBackground(from, to topology.NodeID, msg coap.Message) error {
	fi, ti, err := b.ends(from, to)
	if err != nil {
		return err
	}
	if b.nodes[fi].crashed {
		return nil // a crashed node transmits nothing (uncounted: control)
	}
	e, err := b.encode(from, to, fi, ti, msg)
	if err != nil {
		return err
	}
	e.control = true
	b.inc(&b.cells.keepalives, obs.MetricKeepalives)
	b.transmit(e, b.retxStream())
	return nil
}

// ends resolves a send's two endpoints to their dense slots.
func (b *Bus) ends(from, to topology.NodeID) (fi, ti int32, err error) {
	if ti = b.slot(to); ti < 0 {
		return 0, 0, unknownNode(to)
	}
	if fi = b.slot(from); fi < 0 {
		return 0, 0, unknownNode(from)
	}
	return fi, ti, nil
}

// unknownNode is the error of a send to or from an id nobody registered: a
// mis-deployed fleet, never the steady state.
func unknownNode(id topology.NodeID) error {
	return fmt.Errorf("%w: %d", ErrUnknownNode, id) //harplint:allow hotpath error path of a mis-deployed fleet
}

// encode serialises msg into a pooled envelope addressed from→to. On an
// encoding error the envelope goes straight back to the pool.
func (b *Bus) encode(from, to topology.NodeID, fi, ti int32, msg coap.Message) (*envelope, error) {
	e := b.takeEnv()
	wire, err := msg.AppendTo(e.wire[:0])
	if err != nil {
		e.refs = 1
		b.releaseEnv(e)
		return nil, err
	}
	e.from, e.to, e.fi, e.ti, e.wire, e.mid = from, to, fi, ti, wire, msg.MessageID
	return e, nil
}

// inc adds one to one of the bus's run-global counters through its cell.
func (b *Bus) inc(c *obs.Cell, kind string) { b.metrics.AddCell(c, obs.Key(kind), 1) }

// retxStream returns the control-copy latency stream: the retx stream when
// reliability is on, else a lazily-created stream on the detector's name —
// never the primary stream, so background probes cannot perturb the
// latency draws of application messages.
func (b *Bus) retxStream() *rand.Rand {
	if b.retxRNG != nil {
		return b.retxRNG
	}
	if b.bgRNG == nil {
		b.bgRNG = b.clock.RNG(vclock.StreamDetector, 0)
	}
	return b.bgRNG
}

// shardOf resolves the clock shard deliveries to a node ride on.
func (b *Bus) shardOf(to topology.NodeID) int {
	if b.shardRouter == nil {
		return 0
	}
	return b.shardRouter(to) //harplint:allow hotpath the co-simulation's router indexes a per-node slice
}

// transmit queues one copy of an envelope with a management-cell latency
// drawn from r, preserving per-pair FIFO. The scheduled copy holds one
// envelope reference, released when deliver finishes with it.
//
//harplint:hotpath
func (b *Bus) transmit(e *envelope, r *rand.Rand) {
	latency := r.Float64() * float64(b.slotsPerHop)
	deliverAt := b.clock.Now() + latency
	p := b.peerFor(e.fi, e.ti)
	if deliverAt <= p.last {
		deliverAt = p.last + 1e-6 // FIFO per pair
	}
	p.last = deliverAt
	retainEnv(e)
	b.clock.ScheduleArgIn(b.shardOf(e.to), deliverAt, b.deliverPrimary, e)
}

// startExchange begins the confirmable exchange for e on its pair, which
// must be idle: transmit the first copy and arm the retransmission timer.
// backlog is what is already queued behind it.
func (b *Bus) startExchange(e *envelope, backlog []*envelope) {
	jitter := b.retxRNG.Float64()
	bx := &busExchange{
		env: e, ex: b.params.NewExchange(e.mid, b.clock.Now(), jitter),
		start: b.clock.Now(), backlog: backlog,
	}
	b.peerFor(e.fi, e.ti).ex = bx
	b.transmit(e, b.rng)
	bx.timer = b.clock.ScheduleCancelableIn(b.shardOf(e.to), bx.ex.NextAt, func() { b.onRetxTimer(bx) })
}

// onRetxTimer is the clock event of an exchange's retransmission timer.
func (b *Bus) onRetxTimer(bx *busExchange) {
	if p := b.peerOf(bx.env.fi, bx.env.ti); p == nil || p.ex != bx || bx.ex.Done() {
		return // resolved, or abandoned by a crash of the sender: the timer was stale
	}
	if bx.ex.Retransmit(b.clock.Now()) {
		b.inc(&b.cells.retransmissions, obs.MetricRetransmissions)
		if tr := b.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindCoapRetx).WithNode(int(bx.env.from)).WithPeer(int(bx.env.to)).
				WithParent(bx.env.span))
		}
		b.transmit(bx.env, b.retxRNG)
		bx.timer = b.clock.ScheduleCancelableIn(b.shardOf(bx.env.to), bx.ex.NextAt, func() { b.onRetxTimer(bx) })
		return
	}
	b.inc(&b.cells.giveUps, obs.MetricGiveUps)
	if tr := b.tracer; tr.Enabled() {
		// The give-up span is pushed so the failure handler's unwind (and
		// any sends it makes) chains off it causally.
		span := tr.Emit(obs.Ev(obs.KindCoapGiveUp).WithNode(int(bx.env.from)).WithPeer(int(bx.env.to)).
			WithParent(bx.env.span))
		tr.Push(span)
		defer tr.Pop()
	}
	b.finishExchange(bx, true)
}

// finishExchange retires the exchange in progress on a pair (resolved or
// given up), starts the next backlogged exchange on the pair, and on
// failure notifies the sender's FailureHandler. The backlog is dispatched
// first so a reentrant Send from the failure handler sees the NSTART=1
// invariant intact.
func (b *Bus) finishExchange(bx *busExchange, failed bool) {
	b.peerOf(bx.env.fi, bx.env.ti).ex = nil
	bx.timer.Cancel()
	b.inFlight--
	// Distribution telemetry: RTT of settled exchanges (first copy to
	// ACK, milli-slots) and retransmissions per finished exchange. These
	// are run-cumulative (Registry.Reset leaves distributions alone), so
	// they span every adjustment of the run.
	if !failed {
		b.metrics.Dist(obs.Key(obs.MetricConRttMs)).Observe(int64((b.clock.Now() - bx.start) * 1000))
	}
	b.metrics.Dist(obs.Key(obs.MetricConRetx)).Observe(int64(bx.ex.Attempts - 1))
	if q := bx.backlog; len(q) > 0 {
		b.startExchange(q[0], q[1:])
	}
	if failed {
		if h, ok := b.nodes[bx.env.fi].handler.(FailureHandler); ok {
			// The handler may keep the message, so it gets the owning form.
			if msg, err := coap.Decode(bx.env.wire); err == nil {
				h.HandleSendFailure(bx.env.to, msg)
			}
		}
	}
	b.releaseEnv(bx.env) // the exchange's ownership reference
}

// sendAck emits the empty ACK for a received confirmable message (from/fi
// are the acknowledging side, i.e. the original receiver). ACKs are
// control traffic: unreliable, uncounted, but subject to the same channel
// (latency, FIFO, faults) — a lost ACK is what forces a retransmission.
func (b *Bus) sendAck(from, to topology.NodeID, fi, ti int32, mid uint16) {
	e, err := b.encode(from, to, fi, ti, coap.EmptyAck(mid))
	if err != nil {
		return
	}
	e.control = true
	b.transmit(e, b.retxRNG)
}

// dedupFor returns (creating on demand) a receiver slot's Message-ID cache.
func (b *Bus) dedupFor(i int32) *coap.DedupCache {
	t := b.trafficOf(i)
	if t.dedup == nil {
		t.dedup = coap.NewDedupCache(b.params.ExchangeLifetime())
	}
	return t.dedup
}

// deliver is the clock event for one queued copy. primary marks the copy
// Send/retransmit queued itself, as opposed to a duplication-fault copy.
// The copy's envelope reference is released on return.
//
// The message is parsed in place: what the handler sees aliases the
// envelope's wire buffer (and the bus's option scratch) and is good for the
// handler call only — see Handler. Deliveries are clock events and never
// nest, so one scratch serves them all.
func (b *Bus) deliver(e *envelope, primary bool) {
	defer b.releaseEnv(e)
	msg, ok := b.receive(e, primary)
	if !ok {
		return
	}
	if b.reliable && !b.receiveReliable(e, msg) {
		return
	}
	if !e.control {
		// Background sends (keepalives) are control traffic: delivered to
		// the handler but never tallied, like ACKs.
		b.count(msg, e)
	}
	if tr := b.tracer; tr.Enabled() {
		// The rx span stays current while the handler runs, so every
		// event the receiving agent emits — state transitions, further
		// sends — is parented to this delivery.
		span := tr.Emit(obs.Ev(obs.KindCoapRx).WithNode(int(e.to)).WithPeer(int(e.from)).
			WithParent(e.span).WithDetail(msg.Code.String() + " " + msg.Path()))
		tr.Push(span)
		defer tr.Pop()
	}
	if h := b.nodes[e.ti].handler; h != nil {
		h.Handle(e.from, msg)
	}
}

// receive is the channel's half of a delivery: the copy settles its
// in-flight slot, is lost to a crashed receiver, a downed link or an
// injected drop (ok false), may spawn a duplicate, and is parsed in place.
// On a clean channel it is a few comparisons and the parse.
//
//harplint:hotpath
func (b *Bus) receive(e *envelope, primary bool) (msg coap.Message, ok bool) {
	if primary && !e.reliable && !e.control {
		b.inFlight-- // unreliable messages settle at their delivery event
	}
	if b.nodes[e.ti].crashed {
		b.inc(&b.cells.crashDropped, obs.MetricCrashDropped)
		if tr := b.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindFaultCrash).WithNode(int(e.to)).WithPeer(int(e.from)).
				WithParent(e.span))
		}
		return msg, false
	}
	if b.linkDown != nil && b.linkDown[pairKey(e.fi, e.ti)] {
		b.inc(&b.cells.linkDropped, obs.MetricLinkDropped)
		if tr := b.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindFaultDrop).WithNode(int(e.to)).WithPeer(int(e.from)).
				WithParent(e.span))
		}
		return msg, false
	}
	if b.faultRNG != nil {
		if b.faults.Drop > 0 && b.faultRNG.Float64() < b.faults.Drop {
			b.inc(&b.cells.dropped, obs.MetricDropped)
			if tr := b.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindFaultDrop).WithNode(int(e.to)).WithPeer(int(e.from)).
					WithParent(e.span))
			}
			return msg, false
		}
		if b.faults.Dup > 0 && primary && b.faultRNG.Float64() < b.faults.Dup {
			b.inc(&b.cells.duplicated, obs.MetricDuplicated)
			if tr := b.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindFaultDup).WithNode(int(e.to)).WithPeer(int(e.from)).
					WithParent(e.span))
			}
			delay := b.faultRNG.Float64() * float64(b.slotsPerHop)
			retainEnv(e)
			b.clock.ScheduleArgIn(b.shardOf(e.to), b.clock.Now()+delay, b.deliverDup, e)
		}
	}
	msg, err := coap.ParseBorrowed(e.wire, b.rxOpts)
	if err != nil {
		b.decodeError(e, err)
		return msg, false
	}
	b.rxOpts = msg.Options[:0] // keep what the scratch grew to
	return msg, true
}

// receiveReliable is the reliability layer's half of a delivery (RFC 7252
// §4.2–4.5): an ACK settles the exchange it answers and goes no further;
// a confirmable message is acknowledged, every copy of it, and reaches
// the handler (true) only the first time.
func (b *Bus) receiveReliable(e *envelope, msg coap.Message) bool {
	switch msg.Type {
	case coap.Acknowledgement:
		b.inc(&b.cells.acksDelivered, obs.MetricAcksDelivered)
		// The exchange the ACK settles is the receiver's, toward the sender.
		if p := b.peerOf(e.ti, e.fi); p != nil && p.ex != nil && p.ex.ex.Ack(msg.MessageID) {
			if tr := b.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindCoapAck).WithNode(int(e.to)).WithPeer(int(e.from)).
					WithParent(p.ex.env.span))
			}
			b.finishExchange(p.ex, false)
		}
		return false
	case coap.Confirmable:
		// Acknowledge every copy (§4.2: retransmitted CONs are re-ACKed),
		// then suppress duplicates before they reach the handler (§4.5).
		b.sendAck(e.to, e.from, e.ti, e.fi, msg.MessageID)
		if b.dedupFor(e.ti).Observe(uint64(e.from), msg.MessageID, b.clock.Now()) {
			b.inc(&b.cells.dupSuppressed, obs.MetricDupSuppressed)
			if tr := b.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindCoapDup).WithNode(int(e.to)).WithPeer(int(e.from)).
					WithParent(e.span))
			}
			return false
		}
	}
	return true
}

// decodeError records a delivery whose wire bytes did not parse; deliveries
// keep flowing.
func (b *Bus) decodeError(e *envelope, err error) {
	b.inc(&b.cells.decodeErrors, obs.MetricDecodeErrors)
	if tr := b.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindCoapErr).WithNode(int(e.to)).WithPeer(int(e.from)).
			WithParent(e.span))
	}
	//harplint:allow hotpath a corrupt frame is never the steady state
	b.errs = append(b.errs, fmt.Errorf("transport: decoding message %d->%d: %w", e.from, e.to, err))
}

// Run delivers messages in timestamp order until the clock drains,
// returning the virtual time (slots) when the last event ran. Handlers
// may send further messages; those are delivered too. On a shared clock
// Run also runs the other consumers' events — co-simulations drive the
// clock (or the simulator) instead and check Err afterwards.
func (b *Bus) Run() (float64, error) {
	now := b.clock.Run()
	return now, b.Err()
}

// count tallies one delivered message in the registry: the global total,
// the message class, and the per-node endpoints that define the Table II
// participant set — each through a cell, so a warm delivery hashes nothing.
func (b *Bus) count(msg coap.Message, e *envelope) {
	class := b.classOf(msg)
	if class < 0 {
		class = b.newClass(msg)
	}
	b.tally(class, e)
}

// tally is count once the class is known.
//
//harplint:hotpath
func (b *Bus) tally(class int, e *envelope) {
	b.inc(&b.cells.delivered, obs.MetricDelivered)
	cl := &b.classes[class]
	b.metrics.AddCell(&cl.cell, obs.Key(cl.kind), 1)
	b.metrics.AddCell(&b.trafficOf(e.fi).tx, obs.NodeKey(int(e.from), obs.MetricNodeTx), 1)
	b.metrics.AddCell(&b.trafficOf(e.ti).rx, obs.NodeKey(int(e.to), obs.MetricNodeRx), 1)
}

// classOf finds the message's class in b.classes by comparing bytes, or
// returns -1: a class not seen yet, or a multi-segment path (no Table I
// message has one).
//
//harplint:hotpath
func (b *Bus) classOf(msg coap.Message) int {
	seg, single := msg.PathSegment()
	if !single {
		return -1
	}
	for i := range b.classes {
		if c := &b.classes[i]; c.key.Code == msg.Code && c.seg != nil && bytes.Equal(c.seg, seg) {
			return i
		}
	}
	return -1
}

// newClass is count's slow path: it enters a class on first sight
// (formatting its kind string once) and resolves multi-segment paths by
// their joined string.
func (b *Bus) newClass(msg coap.Message) int {
	ck := CountKey{Code: msg.Code, Path: msg.Path()}
	i := b.classIndex(ck)
	if i < 0 {
		i = len(b.classes)
		b.classes = append(b.classes, msgClass{key: ck, kind: obs.MetricClassPrefix + ck.String()})
	}
	if _, single := msg.PathSegment(); single {
		b.classes[i].seg = []byte(ck.Path)
	}
	return i
}

// classIndex finds a class by its key, or returns -1.
func (b *Bus) classIndex(ck CountKey) int {
	for i := range b.classes {
		if b.classes[i].key == ck {
			return i
		}
	}
	return -1
}

// Count returns the delivered tally of one message class — a view over
// the registry's per-class counter.
func (b *Bus) Count(code coap.Code, path string) int {
	i := b.classIndex(CountKey{Code: code, Path: path})
	if i < 0 {
		return 0
	}
	return int(b.metrics.Counter(obs.Key(b.classes[i].kind)))
}

// Delivered returns the total number of delivered application messages
// (ACKs excluded) since the last ResetCounters.
func (b *Bus) Delivered() int {
	return int(b.metrics.Counter(obs.Key(obs.MetricDelivered)))
}

// ParticipantCount returns how many distinct nodes sent or received a
// message since the last ResetCounters — the "Nodes" column of Table II.
func (b *Bus) ParticipantCount() int {
	return len(b.metrics.Nodes(obs.MetricNodeTx, obs.MetricNodeRx))
}

// Faults returns a snapshot of the channel-fault and reliability-layer
// counters — a view over the registry's transport series.
func (b *Bus) Faults() FaultStats {
	m := b.metrics
	return FaultStats{
		Dropped:              int(m.Counter(obs.Key(obs.MetricDropped))),
		Duplicated:           int(m.Counter(obs.Key(obs.MetricDuplicated))),
		CrashDropped:         int(m.Counter(obs.Key(obs.MetricCrashDropped))),
		Retransmissions:      int(m.Counter(obs.Key(obs.MetricRetransmissions))),
		DuplicatesSuppressed: int(m.Counter(obs.Key(obs.MetricDupSuppressed))),
		AcksDelivered:        int(m.Counter(obs.Key(obs.MetricAcksDelivered))),
		GiveUps:              int(m.Counter(obs.Key(obs.MetricGiveUps))),
		DecodeErrors:         int(m.Counter(obs.Key(obs.MetricDecodeErrors))),
	}
}

// ResetCounters clears the registry (between experiment events), so each
// adjustment's overhead is measured on its own. Because co-simulation
// layers share the registry, this clears their series too — the same
// all-or-nothing semantics the legacy per-field reset had.
func (b *Bus) ResetCounters() {
	b.metrics.Reset()
}
