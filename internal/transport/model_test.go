package transport

import (
	"math/rand"
	"testing"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// This file is the reference the per-sender peer tables are checked
// against: a small model of the bus that keeps the per-pair rules the way
// they were first written — three maps keyed by the ordered pair (the FIFO
// clock, the NSTART=1 exchange, its backlog). It has no envelopes, no
// codec, no counters and no tracer; it draws from the same named streams
// in the same order, so it must schedule the same events at the same
// times. TestBusMatchesPairMapModel drives both with random scripts and
// compares them after every clock event.

type modelPair [2]topology.NodeID // from, to

type modelMsg struct {
	from, to topology.NodeID
	mid      uint16
	reliable bool // confirmable application message owned by an exchange
	control  bool // background probe or ACK: no in-flight slot
	ack      bool
}

type modelExchange struct {
	msg   *modelMsg
	ex    *coap.Exchange
	timer *vclock.Handle
}

// modelEvent is what both sides log: a delivery to a handler ('d') or a
// give-up notification ('g'), with the virtual time it happened at.
type modelEvent struct {
	kind     byte
	at       float64
	from, to topology.NodeID
	mid      uint16
}

type modelBus struct {
	clock             *vclock.Clock
	rng, retx, faults *rand.Rand
	bg                *rand.Rand
	slots             float64
	reliable          bool
	params            coap.ReliabilityParams
	drop, dup         float64

	crashed      map[topology.NodeID]bool
	linkDown     map[modelPair]bool
	dedup        map[topology.NodeID]*coap.DedupCache
	lastDelivery map[modelPair]float64
	outstanding  map[modelPair]*modelExchange
	backlog      map[modelPair][]*modelMsg
	inFlight     int
	log          []modelEvent
}

func newModelBus(slots int, seed int64, reliable bool, faults FaultConfig) *modelBus {
	c := vclock.New()
	m := &modelBus{
		clock:        c,
		rng:          c.RNG(vclock.StreamBus, seed),
		slots:        float64(slots),
		crashed:      make(map[topology.NodeID]bool),
		linkDown:     make(map[modelPair]bool),
		dedup:        make(map[topology.NodeID]*coap.DedupCache),
		lastDelivery: make(map[modelPair]float64),
		outstanding:  make(map[modelPair]*modelExchange),
		backlog:      make(map[modelPair][]*modelMsg),
	}
	if reliable {
		m.reliable = true
		m.params = coap.DefaultReliability(2 * m.slots)
		m.retx = c.RNG(vclock.StreamRetx, seed)
	}
	if faults.Drop > 0 || faults.Dup > 0 {
		m.drop, m.dup = faults.Drop, faults.Dup
		m.faults = c.RNG(vclock.StreamFault, faults.Seed)
	}
	return m
}

func (m *modelBus) send(from, to topology.NodeID, mid uint16) {
	if m.crashed[from] {
		return
	}
	msg := &modelMsg{from: from, to: to, mid: mid}
	m.inFlight++
	if !m.reliable {
		m.transmit(msg, m.rng)
		return
	}
	msg.reliable = true
	pair := modelPair{from, to}
	if m.outstanding[pair] != nil {
		m.backlog[pair] = append(m.backlog[pair], msg)
		return
	}
	m.startExchange(pair, msg)
}

func (m *modelBus) sendBackground(from, to topology.NodeID, mid uint16) {
	if m.crashed[from] {
		return
	}
	m.transmit(&modelMsg{from: from, to: to, mid: mid, control: true}, m.controlStream())
}

func (m *modelBus) controlStream() *rand.Rand {
	if m.retx != nil {
		return m.retx
	}
	if m.bg == nil {
		m.bg = m.clock.RNG(vclock.StreamDetector, 0)
	}
	return m.bg
}

func (m *modelBus) transmit(msg *modelMsg, r *rand.Rand) {
	at := m.clock.Now() + r.Float64()*m.slots
	pair := modelPair{msg.from, msg.to}
	if last, ok := m.lastDelivery[pair]; ok && at <= last {
		at = last + 1e-6
	}
	m.lastDelivery[pair] = at
	m.clock.ScheduleIn(0, at, func() { m.deliver(msg, true) })
}

func (m *modelBus) startExchange(pair modelPair, msg *modelMsg) {
	jitter := m.retx.Float64()
	x := &modelExchange{msg: msg, ex: m.params.NewExchange(msg.mid, m.clock.Now(), jitter)}
	m.outstanding[pair] = x
	m.transmit(msg, m.rng)
	x.timer = m.clock.ScheduleCancelableIn(0, x.ex.NextAt, func() { m.onTimer(pair, x) })
}

func (m *modelBus) onTimer(pair modelPair, x *modelExchange) {
	if m.outstanding[pair] != x || x.ex.Done() {
		return
	}
	if x.ex.Retransmit(m.clock.Now()) {
		m.transmit(x.msg, m.retx)
		x.timer = m.clock.ScheduleCancelableIn(0, x.ex.NextAt, func() { m.onTimer(pair, x) })
		return
	}
	m.finish(pair, x, true)
}

func (m *modelBus) finish(pair modelPair, x *modelExchange, failed bool) {
	delete(m.outstanding, pair)
	x.timer.Cancel()
	m.inFlight--
	if q := m.backlog[pair]; len(q) > 0 {
		m.backlog[pair] = q[1:]
		m.startExchange(pair, q[0])
	}
	if failed {
		m.log = append(m.log, modelEvent{'g', m.clock.Now(), x.msg.from, x.msg.to, x.msg.mid})
	}
}

func (m *modelBus) deliver(msg *modelMsg, primary bool) {
	if primary && !msg.reliable && !msg.control {
		m.inFlight--
	}
	if m.crashed[msg.to] || m.linkDown[modelPair{msg.from, msg.to}] {
		return
	}
	if m.faults != nil {
		if m.drop > 0 && m.faults.Float64() < m.drop {
			return
		}
		if m.dup > 0 && primary && m.faults.Float64() < m.dup {
			at := m.clock.Now() + m.faults.Float64()*m.slots
			m.clock.ScheduleIn(0, at, func() { m.deliver(msg, false) })
		}
	}
	if m.reliable {
		switch {
		case msg.ack:
			pair := modelPair{msg.to, msg.from}
			if x := m.outstanding[pair]; x != nil && x.ex.Ack(msg.mid) {
				m.finish(pair, x, false)
			}
			return
		case msg.reliable:
			m.transmit(&modelMsg{from: msg.to, to: msg.from, mid: msg.mid, control: true, ack: true}, m.retx)
			cache := m.dedup[msg.to]
			if cache == nil {
				cache = coap.NewDedupCache(m.params.ExchangeLifetime())
				m.dedup[msg.to] = cache
			}
			if cache.Observe(uint64(msg.from), msg.mid, m.clock.Now()) {
				return
			}
		}
	}
	m.log = append(m.log, modelEvent{'d', m.clock.Now(), msg.from, msg.to, msg.mid})
}

func (m *modelBus) crash(id topology.NodeID) {
	if m.crashed[id] {
		return
	}
	m.crashed[id] = true
	for pair, x := range m.outstanding {
		if pair[0] == id {
			x.timer.Cancel()
			delete(m.outstanding, pair)
			m.inFlight--
		}
	}
	for pair, q := range m.backlog {
		if pair[0] == id {
			m.inFlight -= len(q)
			delete(m.backlog, pair)
		}
	}
}

func (m *modelBus) restart(id topology.NodeID) {
	m.crashed[id] = false
	delete(m.dedup, id)
}

// logHandler records what the bus hands a node, in the model's terms.
type logHandler struct {
	id  topology.NodeID
	bus *Bus
	log *[]modelEvent
}

func (h *logHandler) Handle(from topology.NodeID, msg coap.Message) {
	*h.log = append(*h.log, modelEvent{'d', h.bus.Now(), from, h.id, msg.MessageID})
}

func (h *logHandler) HandleSendFailure(to topology.NodeID, msg coap.Message) {
	*h.log = append(*h.log, modelEvent{'g', h.bus.Now(), h.id, to, msg.MessageID})
}

// TestBusMatchesPairMapModel is the differential FIFO test: 24 seeded
// random scripts — plain and reliable, clean and with drop/dup faults, all
// with crashes and restarts landing mid-exchange and link flaps — run on
// the bus and on the pair-map model. After every clock event both must
// show the same virtual time, the same Pending() and the same log of
// deliveries and give-ups, entry for entry.
func TestBusMatchesPairMapModel(t *testing.T) {
	const (
		slots   = 50
		nodes   = 6
		ops     = 160
		horizon = 40 * slots
	)
	var deliveries, giveUpsSeen, retransmissions int
	for seed := int64(1); seed <= 24; seed++ {
		reliable := seed%2 == 1
		var faults FaultConfig
		if (seed/2)%2 == 1 {
			faults = FaultConfig{Drop: 0.25, Dup: 0.15, Seed: seed + 100}
		}
		bus, err := NewBus(slots, seed)
		if err != nil {
			t.Fatal(err)
		}
		if reliable {
			bus.EnableReliability(seed)
		}
		bus.SetFaults(faults)
		var busLog []modelEvent
		for id := topology.NodeID(1); id <= nodes; id++ {
			bus.Register(id, &logHandler{id: id, bus: bus, log: &busLog})
		}
		model := newModelBus(slots, seed, reliable, faults)

		// The script: the same operations at the same times on both clocks.
		script := rand.New(rand.NewSource(seed))
		pick := func() topology.NodeID { return topology.NodeID(1 + script.Intn(nodes)) }
		for i := 0; i < ops; i++ {
			at := script.Float64() * horizon
			mid := uint16(i + 1)
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			var onBus, onModel func()
			switch r := script.Float64(); {
			case r < 0.74:
				msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: mid, Options: coap.PathOptions("intf")}
				msg.Payload = []byte{byte(i)}
				onBus = func() {
					if err := bus.Send(a, b, msg); err != nil {
						t.Error(err)
					}
				}
				onModel = func() { model.send(a, b, mid) }
			case r < 0.82:
				probe := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: mid, Options: coap.PathOptions("ka")}
				onBus = func() {
					if err := bus.SendBackground(a, b, probe); err != nil {
						t.Error(err)
					}
				}
				onModel = func() { model.sendBackground(a, b, mid) }
			case r < 0.85:
				onBus, onModel = func() { bus.Crash(a) }, func() { model.crash(a) }
			case r < 0.92:
				onBus, onModel = func() { bus.Restart(a) }, func() { model.restart(a) }
			case r < 0.96:
				onBus = func() { bus.SetLinkDown(a, b) }
				onModel = func() { model.linkDown[modelPair{a, b}], model.linkDown[modelPair{b, a}] = true, true }
			default:
				onBus = func() { bus.SetLinkUp(a, b) }
				onModel = func() { delete(model.linkDown, modelPair{a, b}); delete(model.linkDown, modelPair{b, a}) }
			}
			bus.Clock().ScheduleIn(0, at, onBus)
			model.clock.ScheduleIn(0, at, onModel)
		}

		for step := 0; ; step++ {
			ranBus, ranModel := bus.Clock().Step(), model.clock.Step()
			if ranBus != ranModel {
				t.Fatalf("seed %d step %d: bus stepped %t, model %t", seed, step, ranBus, ranModel)
			}
			if !ranBus {
				break
			}
			if bus.Now() != model.clock.Now() {
				t.Fatalf("seed %d step %d: bus at %v, model at %v", seed, step, bus.Now(), model.clock.Now())
			}
			if bus.Pending() != model.inFlight {
				t.Fatalf("seed %d step %d (t=%v): Pending %d, model %d", seed, step, bus.Now(), bus.Pending(), model.inFlight)
			}
			if len(busLog) != len(model.log) || (len(busLog) > 0 && busLog[len(busLog)-1] != model.log[len(model.log)-1]) {
				t.Fatalf("seed %d step %d (t=%v): logs diverge: bus %d entries (last %+v), model %d (last %+v)",
					seed, step, bus.Now(), len(busLog), last(busLog), len(model.log), last(model.log))
			}
		}
		if err := bus.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		giveUps := 0
		for _, e := range busLog {
			if e.kind == 'g' {
				giveUps++
			}
		}
		if giveUps != bus.Faults().GiveUps {
			t.Errorf("seed %d: %d give-up notifications, %d counted", seed, giveUps, bus.Faults().GiveUps)
		}
		deliveries += len(busLog) - giveUps
		giveUpsSeen += giveUps
		retransmissions += bus.Faults().Retransmissions
	}
	// The scripts must reach what they are there for: plenty of deliveries,
	// exchanges retried and exchanges abandoned.
	if deliveries < 1000 || giveUpsSeen < 50 || retransmissions < 200 {
		t.Errorf("scripts too tame: %d deliveries, %d give-ups, %d retransmissions", deliveries, giveUpsSeen, retransmissions)
	}
}

func last(log []modelEvent) modelEvent {
	if len(log) == 0 {
		return modelEvent{}
	}
	return log[len(log)-1]
}
