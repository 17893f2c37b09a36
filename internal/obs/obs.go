// Package obs is HARP's observability layer: a causal, virtual-time
// event tracer plus a unified metrics registry shared by every runtime
// package (transport, agent, sim, cosim).
//
// # Determinism
//
// Every trace event is stamped with the shared vclock's current virtual
// time — never the wall clock — and span IDs are allocated in emission
// order, which on a single-goroutine clock is itself a pure function of
// the seeds. Two runs with the same configuration therefore produce
// byte-identical traces at any -workers count: each co-simulation owns
// its clock and tracer, and sweeps concatenate per-point traces in index
// order (internal/parallel's index-owned slots), never in completion
// order.
//
// # Disabled cost
//
// A nil *Tracer is the disabled tracer: Enabled reports false on the nil
// receiver, and every hook site guards its event construction behind that
// check, so hot paths pay one nil comparison and zero allocations when
// tracing is off (asserted by benchmarks in this package and in
// internal/transport).
//
// # Causality
//
// Events form a forest: each event may name a parent span, and emitters
// keep a per-clock-event span stack (Push/Pop) so work done inside a
// handler — an agent reacting to a delivered CoAP message, a fleet
// adjustment reacting to a cosim trigger — is parented to the event that
// caused it. A Fig. 10 adjustment replays as a causal chain from the
// cosim.trigger event through every tx/rx/escalation to the cosim.commit.
package obs

import (
	"github.com/harpnet/harp/internal/vclock"
)

// Kind names an event class, dotted as "layer.event" — the prefix before
// the dot is the emitting layer and is what per-phase breakdowns group
// by.
type Kind string

// The event taxonomy. Transport events carry the sender in Node and the
// receiver in Peer for tx-side records (tx/retx/giveup) and the reverse
// for rx-side records (rx/ack/dup — the node that observed the event is
// always Node). MAC events carry the absolute slot and channel of the
// cell; agent events carry the hierarchy layer acted on.
const (
	// KindMeta is the trace header: its Detail holds the run's timebase
	// ("slots=<slotframe length> slot_s=<slot seconds> nodes=<count>"),
	// letting analyzers convert slots to slotframes and seconds.
	KindMeta Kind = "trace.meta"

	// KindCoapTx is a CoAP message entering the channel at the sender.
	KindCoapTx Kind = "coap.tx"
	// KindCoapRx is a delivered CoAP message reaching the receiver's
	// handler (duplicates suppressed before this point).
	KindCoapRx Kind = "coap.rx"
	// KindCoapAck is a delivered ACK settling a confirmable exchange.
	KindCoapAck Kind = "coap.ack"
	// KindCoapRetx is a confirmable retransmission after an ACK timeout.
	KindCoapRetx Kind = "coap.retx"
	// KindCoapGiveUp is an exchange abandoned after MAX_RETRANSMIT.
	KindCoapGiveUp Kind = "coap.giveup"
	// KindCoapDup is a confirmable delivery suppressed by the receiver's
	// Message-ID dedup cache.
	KindCoapDup Kind = "coap.dup"
	// KindCoapErr is a delivery whose payload failed to decode.
	KindCoapErr Kind = "coap.err"

	// KindFaultDrop is an injected Bernoulli delivery loss.
	KindFaultDrop Kind = "fault.drop"
	// KindFaultDup is an injected duplicate delivery.
	KindFaultDup Kind = "fault.dup"
	// KindFaultCrash is a delivery (or send) discarded because the node
	// was crashed.
	KindFaultCrash Kind = "fault.crashdrop"
	// KindNodeCrash is a scripted node outage beginning.
	KindNodeCrash Kind = "node.crash"
	// KindNodeRestart is a crashed node rejoining with cleared state.
	KindNodeRestart Kind = "node.restart"

	// KindAgentReport is an agent computing and forwarding its interface
	// report (§IV-B).
	KindAgentReport Kind = "agent.report"
	// KindAgentGrant is an agent receiving a sub-partition grant.
	KindAgentGrant Kind = "agent.grant"
	// KindAgentEscalate is an agent escalating a demand it cannot host to
	// its parent layer.
	KindAgentEscalate Kind = "agent.escalate"
	// KindAgentCommit is an agent committing a pending partition layout.
	KindAgentCommit Kind = "agent.commit"
	// KindAgentAssign is an agent (re)assigning cells inside its own
	// sub-partition.
	KindAgentAssign Kind = "agent.assign"
	// KindAgentJoin is a parent observing a child join.
	KindAgentJoin Kind = "agent.join"
	// KindAgentLeave is a parent observing a child leave.
	KindAgentLeave Kind = "agent.leave"
	// KindAgentUnwind is an agent unwinding reserved state after a
	// confirmable send to its parent was given up on.
	KindAgentUnwind Kind = "agent.unwind"
	// KindAgentSuspect is the failure detector suspecting a silent node.
	KindAgentSuspect Kind = "agent.suspect"
	// KindAgentDead is the failure detector declaring a suspect dead.
	KindAgentDead Kind = "agent.dead"
	// KindAgentAdopt is an orphan re-homing under a new parent after its
	// parent was declared dead (Node is the orphan, Peer the new parent).
	KindAgentAdopt Kind = "agent.adopt"
	// KindAgentAbort is the adjustment watchdog rolling a stale in-flight
	// adjustment back to the last committed layout.
	KindAgentAbort Kind = "agent.abort"
	// KindAgentReadmit is the failure detector re-admitting a node that
	// spoke again after being declared dead (a reboot, or a healed false
	// positive).
	KindAgentReadmit Kind = "agent.readmit"

	// KindMacTx is one successful slot transmission (sender side).
	KindMacTx Kind = "mac.tx"
	// KindMacCollision is a slot lost to two transmitters on one cell.
	KindMacCollision Kind = "mac.collision"
	// KindMacLoss is a slot lost to the channel's Bernoulli PDR draw.
	KindMacLoss Kind = "mac.loss"
	// KindMacMiss is a slot lost to a half-duplex receiver conflict.
	KindMacMiss Kind = "mac.miss"
	// KindMacSwap is a schedule hot-swap taking effect.
	KindMacSwap Kind = "mac.swap"
	// KindMacSwapDrop is a queued packet drained because the new schedule
	// has no cell for its link.
	KindMacSwapDrop Kind = "mac.swapdrop"

	// KindCosimTrigger is a scripted mid-run change (a Fig. 10 rate step)
	// firing; the adjustment it causes is parented to this span.
	KindCosimTrigger Kind = "cosim.trigger"
	// KindCosimCommit is the co-simulation observing protocol quiescence
	// after a trigger: the adjusted schedule is installed this slot.
	KindCosimCommit Kind = "cosim.commit"
)

// None marks an unset Node, Peer, Layer, Slot or Channel field. Zero is
// not usable as the sentinel: node 0 is the gateway and slot 0 exists.
const None = -1

// Event is one trace record. The zero value is not meaningful — build
// events with Ev so unset dimension fields hold None.
type Event struct {
	// VT is the virtual time (slots) the event was emitted at.
	VT float64 `json:"vt"`
	// Span is the event's own ID, unique and ascending within a trace.
	Span uint64 `json:"span"`
	// Parent is the span that caused this event (0 = a root).
	Parent uint64 `json:"parent,omitempty"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Node is the node the event happened on (None if not node-scoped).
	Node int `json:"node"`
	// Peer is the other endpoint of a message event (None if none).
	Peer int `json:"peer"`
	// Layer is the hierarchy layer acted on (None if not layer-scoped).
	Layer int `json:"layer"`
	// Slot is the absolute slot index of a MAC event (None if not
	// slot-scoped); divide by the slotframe length from the trace.meta
	// event to get (slotframe, slot-in-frame).
	Slot int `json:"slot"`
	// Channel is the channel offset of a MAC event (None if none).
	Channel int `json:"ch"`
	// Detail is a short free-form annotation ("PUT intf", a component
	// ID, a task name).
	Detail string `json:"detail,omitempty"`
}

// Ev returns an Event of the given kind with every dimension field unset
// (None); chain the With* builders to fill in what applies.
func Ev(kind Kind) Event {
	return Event{Kind: kind, Node: None, Peer: None, Layer: None, Slot: None, Channel: None}
}

// WithNode sets the event's node.
func (e Event) WithNode(node int) Event { e.Node = node; return e }

// WithPeer sets the message event's other endpoint.
func (e Event) WithPeer(peer int) Event { e.Peer = peer; return e }

// WithLayer sets the hierarchy layer.
func (e Event) WithLayer(layer int) Event { e.Layer = layer; return e }

// WithSlot sets the absolute slot and channel of a MAC event.
func (e Event) WithSlot(slot, channel int) Event { e.Slot = slot; e.Channel = channel; return e }

// WithParent sets the causal parent span, overriding the tracer's
// current span stack.
func (e Event) WithParent(span uint64) Event { e.Parent = span; return e }

// WithDetail sets the free-form annotation.
func (e Event) WithDetail(detail string) Event { e.Detail = detail; return e }

// Tracer records events stamped by a virtual clock. It is not safe for
// concurrent use — like the clock it observes, all emitters run on one
// goroutine. A nil Tracer is the disabled tracer (Enabled reports
// false); hook sites must guard emission behind Enabled so the disabled
// path allocates nothing.
type Tracer struct {
	clock    *vclock.Clock
	events   []Event
	nextSpan uint64
	// stack is the causal context within the current clock event; the
	// clock's step hook clears it so context never leaks across events.
	stack []uint64
}

// NewTracer builds a tracer bound to the clock: events are stamped with
// the clock's virtual time, and the clock's step hook resets the span
// stack at each event dispatch.
func NewTracer(c *vclock.Clock) *Tracer {
	t := &Tracer{clock: c}
	c.SetStepHook(t.onStep)
	return t
}

// onStep is the clock's per-dispatch hook.
func (t *Tracer) onStep(at float64, seq uint64) {
	t.stack = t.stack[:0]
}

// Enabled reports whether the tracer records events; it is safe (and
// false) on the nil receiver, which is how hook sites keep the disabled
// path free.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records the event, stamping its virtual time and span ID. An
// event with no explicit parent is parented to the current span-stack
// top (0, a root, when the stack is empty). Returns the new span ID.
//
//harplint:hotpath
func (t *Tracer) Emit(e Event) uint64 {
	t.nextSpan++
	e.Span = t.nextSpan
	e.VT = t.clock.Now()
	if e.Parent == 0 {
		e.Parent = t.Current()
	}
	t.events = append(t.events, e)
	return e.Span
}

// Push makes span the causal parent of subsequently emitted events,
// until the matching Pop (or the end of the current clock event).
func (t *Tracer) Push(span uint64) { t.stack = append(t.stack, span) }

// Pop undoes the most recent Push.
func (t *Tracer) Pop() {
	if len(t.stack) > 0 {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// Current returns the span new events will be parented to (0 if none).
func (t *Tracer) Current() uint64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// Events returns the recorded events in emission order. The slice is the
// tracer's own backing store — callers must not modify it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}
