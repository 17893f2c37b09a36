package transport

import (
	"errors"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// recorder is a Handler capturing deliveries.
type recorder struct {
	msgs []coap.Message
	from []topology.NodeID
	// echoTo, when set, forwards each delivery once to the given node.
	echoTo topology.NodeID
	net    Network
	self   topology.NodeID
}

func (r *recorder) Handle(from topology.NodeID, msg coap.Message) {
	r.msgs = append(r.msgs, msg.Clone()) // msg is borrowed: keep a copy
	r.from = append(r.from, from)
	echo := r.echoTo
	if echo != 0 && msg.Path() != "echoed" {
		reply := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 99, Options: coap.PathOptions("echoed")}
		_ = r.net.Send(r.self, echo, reply)
	}
}

func (r *recorder) count() int { return len(r.msgs) }

func TestBusDeliversInOrderAndCounts(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &recorder{}, &recorder{}
	bus.Register(1, a)
	bus.Register(2, b)
	m := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}
	m.Payload = []byte("x")
	if err := bus.Send(1, 2, m); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(2, 1, coap.Message{Type: coap.NonConfirmable, Code: coap.PUT, MessageID: 2, Options: coap.PathOptions("part")}); err != nil {
		t.Fatal(err)
	}
	end, err := bus.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 || end > 200 {
		t.Errorf("virtual end time = %f, want (0, 2 slotframes]", end)
	}
	if a.count() != 1 || b.count() != 1 {
		t.Fatalf("deliveries: a=%d b=%d", a.count(), b.count())
	}
	if b.msgs[0].Path() != "intf" || string(b.msgs[0].Payload) != "x" {
		t.Errorf("message corrupted in flight: %+v", b.msgs[0])
	}
	if bus.Delivered() != 2 {
		t.Errorf("Delivered = %d, want 2", bus.Delivered())
	}
	if bus.Count(coap.POST, "intf") != 1 || bus.Count(coap.PUT, "part") != 1 {
		t.Errorf("counts = %v", bus.CountKeys())
	}
	keys := bus.CountKeys()
	if len(keys) != 2 || keys[0] != "POST intf" {
		t.Errorf("CountKeys = %v", keys)
	}
	bus.ResetCounters()
	if bus.Delivered() != 0 || len(bus.CountKeys()) != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestBusUnknownDestination(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(1, 9, coap.Message{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestBusReentrantSend(t *testing.T) {
	// A handler that sends during Handle: the chain must drain within one
	// Run call.
	bus, err := NewBus(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := &recorder{}
	b := &recorder{net: bus, self: 2, echoTo: 1}
	bus.Register(1, a)
	bus.Register(2, b)
	if err := bus.Send(1, 2, coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("ping")}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if a.count() != 1 {
		t.Fatalf("echo not delivered: %d", a.count())
	}
	if a.msgs[0].Path() != "echoed" {
		t.Errorf("echo path = %q", a.msgs[0].Path())
	}
	if bus.Now() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestBusTimeMonotonic(t *testing.T) {
	bus, err := NewBus(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := &recorder{}
	bus.Register(1, h)
	bus.Register(2, &recorder{})
	for i := 0; i < 20; i++ {
		if err := bus.Send(2, 1, coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: uint16(i), Options: coap.PathOptions("t")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if h.count() != 20 {
		t.Fatalf("deliveries = %d", h.count())
	}
}

func TestBusFIFOPerPair(t *testing.T) {
	// Messages between one ordered pair never overtake each other, whatever
	// the sampled latencies — a stale partition grant must not arrive after
	// a newer one.
	bus, err := NewBus(100, 99)
	if err != nil {
		t.Fatal(err)
	}
	sink := &recorder{}
	bus.Register(1, sink)
	bus.Register(2, &recorder{})
	for i := 0; i < 50; i++ {
		if err := bus.Send(2, 1, coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: uint16(i), Options: coap.PathOptions("seq")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 50 {
		t.Fatalf("deliveries = %d", sink.count())
	}
	for i, m := range sink.msgs {
		if int(m.MessageID) != i {
			t.Fatalf("message %d delivered out of order (id %d)", i, m.MessageID)
		}
	}
}

func TestBusOnSharedClockRunUntil(t *testing.T) {
	// A bus on a shared clock delivers only the messages due by the
	// RunUntil boundary; handlers sending from inside Handle during the
	// window have those sends delivered in the same window when due.
	c := vclock.New()
	bus, err := NewBusOnClock(c, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := &recorder{}
	b := &recorder{net: bus, self: 2, echoTo: 1}
	bus.Register(1, a)
	bus.Register(2, b)
	if err := bus.Send(1, 2, coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("ping")}); err != nil {
		t.Fatal(err)
	}
	if bus.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", bus.Pending())
	}
	// Drive the clock in slot-sized increments, as a co-simulation does;
	// the ping and its echo both land within two slotframes.
	for slot := 1; slot <= 100; slot++ {
		c.RunUntil(float64(slot))
	}
	if bus.Pending() != 0 {
		t.Fatalf("Pending = %d after 2 slotframes, want 0", bus.Pending())
	}
	if b.count() != 1 || a.count() != 1 {
		t.Fatalf("deliveries: ping=%d echo=%d, want 1,1", b.count(), a.count())
	}
	if got := bus.Now(); got != 100 {
		t.Errorf("Now = %v, want the RunUntil boundary 100", got)
	}
	if err := bus.Err(); err != nil {
		t.Fatal(err)
	}
}

// nopHandler looks at a delivery the way a router does — method, path
// segment, payload — and keeps nothing, so alloc measurements see only the
// transport's own path.
type nopHandler struct{}

func (nopHandler) Handle(_ topology.NodeID, msg coap.Message) {
	if seg, ok := msg.PathSegment(); ok && msg.Code == coap.POST && len(seg) > 0 {
		_ = msg.Payload
	}
}

// TestBusEnvelopePoolZeroAllocs pins the per-message ledger of a plain bus:
// once the pools, the peer tables and the counter cells are warm, a real
// Table I message (path and payload) and a /ka background probe each cost
// zero allocations from Send to the handler's return — pooled envelope and
// clock event, message parsed in place, every tally through a cell.
func TestBusEnvelopePoolZeroAllocs(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(1, nopHandler{})
	bus.Register(2, nopHandler{})
	report := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 7, Options: coap.PathOptions("intf")}
	report.Payload = []byte{0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}
	probe := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 8, Options: coap.PathOptions("ka")}
	exchange := func() {
		if err := bus.Send(1, 2, report); err != nil {
			t.Fatal(err)
		}
		if err := bus.SendBackground(2, 1, probe); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		exchange() // warm the pools, the peer entries, the class table and the cells
	}
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
		t.Errorf("a Table I message plus a keepalive allocate %.1f times from send to handled, want 0", allocs)
	}
	if n := len(bus.envFree); n < 1 {
		t.Errorf("envelope pool empty after quiescence, want the recycled envelope back")
	}
	if got := bus.Count(coap.POST, "intf"); got != 204+1 {
		t.Errorf("POST intf tally = %d, want one per exchange run (205)", got)
	}
}

// TestBusReliableExchangeAllocs pins what a confirmable exchange still
// allocates once the codec's share is gone: the exchange record and its
// RFC 7252 state machine, and the retransmission timer (closure, clock
// event, cancel handle). The CON copy, its ACK and both parses are free.
// The count may fall, never grow.
func TestBusReliableExchangeAllocs(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(1)
	bus.Register(1, nopHandler{})
	bus.Register(2, nopHandler{})
	report := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 0, Options: coap.PathOptions("intf")}
	report.Payload = []byte{0, 1, 0, 0}
	mid := uint16(0)
	exchange := func() {
		mid++
		report.MessageID = mid
		if err := bus.Send(1, 2, report); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		exchange() // also fills the receiver's dedup cache to its steady size
	}
	const perExchange = 5 // busExchange, coap.Exchange, timer closure, timer event, timer handle
	allocs := testing.AllocsPerRun(200, exchange)
	t.Logf("confirmable exchange: %.2f allocations", allocs)
	if allocs > perExchange {
		t.Errorf("a confirmable exchange allocates %.1f times, want at most %d", allocs, perExchange)
	}
	if f := bus.Faults(); f.GiveUps != 0 || f.Retransmissions != 0 {
		t.Errorf("clean channel retried or gave up: %+v", f)
	}
}

// TestBusUnregisteredSender: per-pair state lives with the sender, so a
// sender nobody registered has nowhere to keep it — both send calls refuse
// it exactly as they refuse an unregistered destination.
func TestBusUnregisteredSender(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(1, nopHandler{})
	msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}
	if err := bus.Send(9, 1, msg); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send from an unregistered node: want ErrUnknownNode, got %v", err)
	}
	if err := bus.SendBackground(9, 1, msg); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SendBackground from an unregistered node: want ErrUnknownNode, got %v", err)
	}
	if bus.Pending() != 0 || bus.Clock().Pending() != 0 {
		t.Errorf("a refused send left Pending=%d, clock events=%d", bus.Pending(), bus.Clock().Pending())
	}
}

// TestBusStarSenderScales: a gateway with thousands of children is one
// sender with thousands of peers. Its peer lookups must not scan: the same
// number of sends costs about the same toward 2 000 peers as toward 125
// (a binary search takes 11 steps instead of 7; a linear scan would take
// 16 times longer).
func TestBusStarSenderScales(t *testing.T) {
	const sends = 40_000
	star := func(children int) time.Duration {
		bus, err := NewBus(100, 1)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id <= children; id++ {
			bus.Register(topology.NodeID(id), nopHandler{})
		}
		probe := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("ka")}
		round := func() {
			for c := 1; c <= children; c++ {
				if err := bus.SendBackground(0, topology.NodeID(c), probe); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bus.Run(); err != nil {
				t.Fatal(err)
			}
		}
		round() // first sight of every peer, pools warm
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			t0 := time.Now()
			for n := 0; n < sends; n += children {
				round()
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	small, large := star(125), star(2000)
	t.Logf("%d sends: %v toward 125 peers, %v toward 2000", sends, small, large)
	if large > 4*small {
		t.Errorf("%d sends take %v toward 2000 peers but %v toward 125: the peer lookup scans", sends, large, small)
	}
}
