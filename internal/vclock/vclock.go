// Package vclock is the shared virtual-time event scheduler that the
// control plane (transport.Bus carrying the HARP protocol) and the data
// plane (the slot-accurate MAC in internal/sim) run on. One Clock holds
// min-heaps of (time, seq) events: the transport schedules message
// deliveries at fractional slot times (the wait for a management cell),
// the simulator schedules one event per slot boundary, and popping the
// earliest event interleaves the two planes exactly as the testbed's
// single radio timeline does — management traffic and data traffic
// contending for the same slotframe (§VI-A/§VI-C).
//
// A heap slot carries the event's (time, seq) key inline next to the event
// pointer, so sifting compares words of the heap array and never
// dereferences an event.
//
// The heap is sharded for scale: events live in per-shard min-heaps
// (callers route related work — e.g. one root subtree — to one shard) and
// each Step pops the globally earliest head across shards. Because every
// event still draws its seq from one global counter and (at, seq) is a
// total order with unique seq, the pop sequence is identical for ANY shard
// count — a 1-shard clock is the degenerate case and N shards replay the
// same history byte for byte. Sharding buys smaller heaps (cheaper
// sift-up/down at 100k+ pending events), not a different schedule.
//
// Determinism is the package's contract: events at equal times run in
// schedule order (the seq tie-break), handlers may schedule further
// events while running, and all randomness flows through per-consumer
// seeded RNG streams (RNG), so a co-simulation is a pure function of its
// seeds. A Clock is not safe for concurrent use; every consumer of one
// clock runs on the same goroutine, which is what makes replay exact.
package vclock

import (
	"fmt"
	"math/rand"
)

// event is one scheduled callback. Its (time, seq) key is not here: the
// key lives in the heap slot that points at the event (see heapSlot). A
// cancelled event keeps its heap slot (removal from the middle of a heap is
// O(n)) but carries nil callbacks; the pop path discards it without running
// anything or advancing time. poolable marks events eligible for the
// clock's free list: only plain ScheduleIn/ScheduleArgIn events, never
// ScheduleCancelableIn ones — a Handle outlives its event's dispatch, and
// recycling the event under a live Handle would let a late Cancel withdraw
// an unrelated future event.
//
// An event carries either fn (a closure) or afn+arg (a prebound function
// applied to one argument — the allocation-free path: callers store the
// function value once and pass per-event state through arg, so scheduling
// allocates nothing beyond the pooled event itself).
type event struct {
	fn       func()
	afn      func(any)
	arg      any
	poolable bool
}

// live reports whether the event still has a callback to run.
func (e *event) live() bool { return e.fn != nil || e.afn != nil }

// heapSlot is one heap entry: the event's (at, seq) key inline next to the
// event pointer, so sift-up/down compares neighbouring array words and
// never dereferences an event.
type heapSlot struct {
	at  float64
	seq uint64
	ev  *event
}

// eventHeap is a min-heap on (at, seq), maintained by heapPush/heapPop
// below rather than container/heap: the interface-method dispatch and
// any-boxing of the stdlib driver are measurable at millions of events and
// would defeat the hot-path allocation audit.
type eventHeap []heapSlot

// before is the heap order: earliest time first, schedule order (seq)
// breaking ties. seq is globally unique, so this is a total order — which
// is what makes the sharded pop sequence independent of the shard count.
func (s *heapSlot) before(o *heapSlot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// heapPush inserts s, sifting up.
//
//harplint:hotpath
func heapPush(h *eventHeap, s heapSlot) {
	*h = append(*h, s)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// heapPop removes and returns the minimum slot, sifting down.
//
//harplint:hotpath
func heapPop(h *eventHeap) heapSlot {
	q := *h
	n := len(q) - 1
	top := q[0]
	last := q[n]
	q[n] = heapSlot{}
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && q[r].before(&q[m]) {
				m = r
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// shard is one independent min-heap plus its share of the lazy-cancel
// bookkeeping, so a shard whose head is cancelled can be pruned without
// touching the others.
type shard struct {
	heap      eventHeap
	cancelled int // cancelled events still occupying slots in this shard
}

// Clock is a deterministic virtual-time scheduler. Time is measured in
// slots (fractional between slot boundaries, as transport latencies are).
type Clock struct {
	now        float64
	seq        uint64
	shards     []shard
	queued     int    // events across all shards, cancelled included
	cancelled  int    // cancelled events across all shards
	dispatched uint64 // events actually run
	rngs       map[Stream]*rand.Rand
	// stepHook, if set, observes every dispatch: it runs after Now has
	// advanced to the event's time and before the event's callback. The
	// observability tracer uses it to reset per-event causal context.
	stepHook func(at float64, seq uint64)
	// windowHook, if set, fires once whenever a dispatch crosses into a
	// new fixed-width virtual-time window (window = floor(now/width));
	// the telemetry layer samples gauges from it. Dispatch order is
	// worker- and shard-blind, so the firing sequence is a pure function
	// of the seeds.
	windowHook  func(window int64, at float64)
	windowWidth float64
	window      int64 // highest window index the hook has fired for
	// free recycles dispatched poolable events so a steady-state
	// schedule/dispatch cycle (the simulator's slot ticks) allocates
	// nothing per event.
	free []*event
}

// Handle identifies a cancelable scheduled event.
type Handle struct {
	c  *Clock
	ev *event
	si int32 // shard holding the event
}

// Cancel withdraws the event. The heap slot is reclaimed lazily when the
// event's time comes up; the event's callback never runs. Cancelling an
// already-run or already-cancelled event is a no-op.
func (h *Handle) Cancel() {
	if h == nil || h.ev == nil || !h.ev.live() {
		return
	}
	h.ev.fn = nil
	h.ev.afn = nil
	h.ev.arg = nil
	h.c.cancelled++
	h.c.shards[h.si].cancelled++
}

// New returns a clock at time zero with no pending events and a single
// shard.
func New() *Clock {
	return &Clock{rngs: make(map[Stream]*rand.Rand), shards: make([]shard, 1)}
}

// SetShards resizes the clock to n per-shard heaps (n < 1 is clamped to
// 1). It may only be called while the clock is idle — no pending events —
// because resizing would otherwise have to rehash queued events across
// shards; callers set the shard count once at topology-build time. The
// shard count never changes the dispatch order (see the package comment),
// only the heap sizes.
func (c *Clock) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if c.queued != 0 {
		panic(fmt.Sprintf("vclock: SetShards(%d) with %d events queued", n, c.queued))
	}
	c.shards = make([]shard, n)
}

// Now returns the current virtual time in slots.
func (c *Clock) Now() float64 { return c.now }

// Pending returns the number of scheduled, not-yet-run events (cancelled
// events are excluded).
func (c *Clock) Pending() int { return c.queued - c.cancelled }

// Dispatched returns the number of events run since the clock was built —
// the numerator of the scale experiments' events/sec throughput metric.
func (c *Clock) Dispatched() uint64 { return c.dispatched }

// pruneShard discards cancelled events sitting at the top of shard si.
func (c *Clock) pruneShard(si int) {
	s := &c.shards[si]
	for len(s.heap) > 0 && !s.heap[0].ev.live() {
		e := heapPop(&s.heap).ev
		s.cancelled--
		c.cancelled--
		c.queued--
		if e.poolable {
			e.poolable = false
			c.free = append(c.free, e)
		}
	}
}

// minShard prunes every shard head and returns the index of the shard
// whose head is the globally earliest (at, seq), or -1 when all shards are
// empty. This linear cross-shard merge is the entire scheduling overhead
// of sharding; shard counts are small (one per root subtree), so a scan
// beats maintaining a second heap of heads.
//
//harplint:hotpath
func (c *Clock) minShard() int {
	best := -1
	for si := range c.shards {
		c.pruneShard(si)
		if len(c.shards[si].heap) == 0 {
			continue
		}
		if best < 0 || c.shards[si].heap[0].before(&c.shards[best].heap[0]) {
			best = si
		}
	}
	return best
}

// clampShard folds an out-of-range shard index onto shard 0, so callers
// may route speculatively (e.g. by subtree) without tracking resizes.
func (c *Clock) clampShard(si int) int {
	if si < 0 || si >= len(c.shards) {
		return 0
	}
	return si
}

// take returns a recycled event or a fresh one.
func (c *Clock) take() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return &event{} //harplint:allow hotpath freelist miss is the cold warm-up path; steady state recycles
}

// ScheduleIn queues fn at virtual time at on the given shard. Times in the
// past are clamped to Now (the event runs next, after already-queued
// same-time events — seq keeps FIFO order). Safe to call from inside a
// running event. The shard only picks which heap holds the event —
// dispatch order is shard-blind — so callers route by locality (one root
// subtree per shard) to keep the heaps small. Out-of-range shards fold
// onto shard 0. The runtime schedules through ScheduleArgIn and
// ScheduleCancelableIn; this closure form is what tests use.
//
//harplint:allow unused closure-scheduling seam of the vclock, obs, sim and transport tests
func (c *Clock) ScheduleIn(si int, at float64, fn func()) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	e := c.take()
	e.fn = fn
	e.poolable = true
	heapPush(&c.shards[c.clampShard(si)].heap, heapSlot{at: at, seq: c.seq, ev: e})
	c.queued++
}

// ScheduleArgIn queues prebound(arg) at virtual time at on the given
// shard. It is the allocation-free variant of ScheduleIn: the caller keeps
// one prebound func(any) value for the lifetime of the system and passes
// per-event state through arg, so nothing escapes per call and the pooled
// event is the only storage.
//
//harplint:hotpath
func (c *Clock) ScheduleArgIn(si int, at float64, prebound func(any), arg any) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	e := c.take()
	e.afn, e.arg = prebound, arg
	e.poolable = true
	heapPush(&c.shards[c.clampShard(si)].heap, heapSlot{at: at, seq: c.seq, ev: e})
	c.queued++
}

// ScheduleCancelableIn queues fn like ScheduleIn and returns a Handle that
// can withdraw the event before it runs — the retransmission timers of the
// reliable transport cancel themselves when the awaited ACK arrives, so
// resolved exchanges leave no stale events dragging the virtual time
// forward.
func (c *Clock) ScheduleCancelableIn(si int, at float64, fn func()) *Handle {
	if at < c.now {
		at = c.now
	}
	c.seq++
	e := &event{fn: fn}
	si = c.clampShard(si)
	heapPush(&c.shards[si].heap, heapSlot{at: at, seq: c.seq, ev: e})
	c.queued++
	return &Handle{c: c, ev: e, si: int32(si)}
}

// Step runs the earliest pending event, advancing Now to its time.
// Returns false when no event is pending.
func (c *Clock) Step() bool {
	si := c.minShard()
	if si < 0 {
		return false
	}
	slot := heapPop(&c.shards[si].heap)
	c.queued--
	c.now = slot.at
	e, seq := slot.ev, slot.seq
	fn, afn, arg := e.fn, e.afn, e.arg
	// A Cancel after the event ran must be a no-op.
	e.fn, e.afn, e.arg = nil, nil, nil
	if e.poolable {
		// Safe to recycle before the callback runs: the event left the
		// heap, no Handle references it, and the callback was copied out.
		// The callback itself may re-take it via ScheduleIn.
		e.poolable = false
		c.free = append(c.free, e)
	}
	c.dispatched++
	if c.stepHook != nil {
		c.stepHook(c.now, seq)
	}
	if c.windowHook != nil {
		if w := int64(c.now / c.windowWidth); w > c.window {
			c.window = w
			c.windowHook(w, c.now)
		}
	}
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// Run drains the queue — including events scheduled by running events —
// and returns the time of the last event run (Now if none were pending).
func (c *Clock) Run() float64 {
	for c.Step() {
	}
	return c.now
}

// RunUntil runs every event with time <= t in order, then advances Now to
// t (Now is left untouched if it is already past t). Events scheduled at
// or before t by running events are run too.
func (c *Clock) RunUntil(t float64) {
	for {
		si := c.minShard()
		if si < 0 || c.shards[si].heap[0].at > t {
			break
		}
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// SetStepHook installs (or, with nil, removes) the per-dispatch observer.
// The hook runs once per dispatched event, after Now has advanced and
// before the event's callback — the order the observability layer needs
// to stamp everything the callback emits with the right virtual time.
func (c *Clock) SetStepHook(fn func(at float64, seq uint64)) { c.stepHook = fn }

// SetWindowHook installs (or, with nil fn, removes) the window-tick
// observer: fn fires at most once per dispatched event, when the
// dispatch advances Now into a window index (floor(Now/width)) higher
// than any seen before. It runs after the step hook and before the
// event's callback. With event-driven stepping several windows may be
// crossed by one dispatch — fn then fires once with the latest index;
// the skipped windows had no events and so nothing to sample. A
// non-positive width disables the hook.
func (c *Clock) SetWindowHook(width float64, fn func(window int64, at float64)) {
	if fn == nil || width <= 0 {
		c.windowHook, c.windowWidth = nil, 0
		return
	}
	c.windowWidth = width
	c.windowHook = fn
	c.window = int64(c.now / width)
}

// Stream names one source of randomness in the system. Runtime packages
// must reach randomness through a named stream — never the global
// math/rand source, never an ad-hoc rand.New — so that a run is a pure
// function of its seeds and adding a consumer never perturbs another's
// draws. The constants below are the single registry of stream names;
// harplint's rngstream pass rejects stream names that are not declared
// here (string literals at call sites are unregistered streams).
type Stream string

// The registered streams. Declaring the name here is what makes a stream
// auditable: every consumer of randomness in the module appears in this
// list exactly once.
const (
	// StreamBus drives the in-virtual-time transport's delivery ordering.
	StreamBus Stream = "transport.bus"
	// StreamFault drives transport fault injection (drops, crashes).
	StreamFault Stream = "transport.fault"
	// StreamRetx drives CoAP retransmission jitter on the virtual bus.
	StreamRetx Stream = "transport.retx"
	// StreamSimMAC drives the TSCH MAC simulator (interferer on/off,
	// per-attempt loss draws).
	StreamSimMAC Stream = "sim.mac"
	// StreamSweep derives the per-trial seeds of experiment sweeps.
	StreamSweep Stream = "experiments.sweep"
	// StreamScale drives the scale experiment family's topology generation
	// and adjustment placement.
	StreamScale Stream = "experiments.scale"
	// StreamDetector drives the failure detector's keepalive jitter, so
	// enabling detection never perturbs the transport's latency draws.
	StreamDetector Stream = "agent.detector"
	// StreamChaos drives the chaos engine's fault scripting (victim
	// selection, crash/restart times, link flaps) and the chaos
	// experiment's topology generation.
	StreamChaos Stream = "cosim.chaos"
)

// NewStream constructs a fresh generator for a registered stream. It is
// the one sanctioned construction site of rand generators outside the
// global registry — harplint's rngstream pass flags rand.New anywhere
// else in runtime packages. The sequence depends only on the seed, so
// swapping a raw rand.New(rand.NewSource(seed)) for NewStream(name, seed)
// is draw-for-draw identical.
func NewStream(name Stream, seed int64) *rand.Rand {
	_ = name // the name documents and registers the consumer
	return rand.New(rand.NewSource(seed))
}

// RNG returns the named consumer's random stream, creating it from seed on
// first use. Each consumer owning a distinct name gets an independent
// stream, so adding a consumer never perturbs another's draws — the same
// property internal/parallel's per-trial streams provide. Calling RNG
// again with the same name returns the same stream regardless of seed.
func (c *Clock) RNG(name Stream, seed int64) *rand.Rand {
	if r, ok := c.rngs[name]; ok {
		return r
	}
	r := NewStream(name, seed)
	c.rngs[name] = r
	return r
}

// String renders the clock state for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("vclock{now=%.4f pending=%d shards=%d}", c.now, c.Pending(), len(c.shards))
}
