package transport

import (
	"errors"
	"testing"

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
	r.msgs = append(r.msgs, msg)
	r.from = append(r.from, from)
	echo := r.echoTo
	if echo != 0 && msg.Path() != "echoed" {
		reply := coap.NewRequest(coap.NonConfirmable, coap.POST, 99, "echoed")
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
	m := coap.NewRequest(coap.NonConfirmable, coap.POST, 1, "intf")
	m.Payload = []byte("x")
	if err := bus.Send(1, 2, m); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(2, 1, coap.NewRequest(coap.NonConfirmable, coap.PUT, 2, "part")); err != nil {
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
	if err := bus.Send(1, 2, coap.NewRequest(coap.NonConfirmable, coap.POST, 1, "ping")); err != nil {
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
	var times []float64
	h := &recorder{}
	bus.Register(1, h)
	for i := 0; i < 20; i++ {
		if err := bus.Send(2, 1, coap.NewRequest(coap.NonConfirmable, coap.POST, uint16(i), "t")); err != nil {
			t.Fatal(err)
		}
	}
	bus.Register(2, &recorder{})
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	_ = times
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
		if err := bus.Send(2, 1, coap.NewRequest(coap.NonConfirmable, coap.POST, uint16(i), "seq")); err != nil {
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
	if err := bus.Send(1, 2, coap.NewRequest(coap.NonConfirmable, coap.POST, 1, "ping")); err != nil {
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

// nopHandler discards deliveries, so alloc measurements see only the
// transport's own path.
type nopHandler struct{}

func (nopHandler) Handle(topology.NodeID, coap.Message) {}

// TestBusEnvelopePoolZeroAllocs pins the pooled envelope path: once the
// pool and the metric/class caches are warm, an unreliable send and its
// delivery recycle one envelope (wire buffer included) and schedule onto
// pooled clock events — zero allocations per message.
func TestBusEnvelopePoolZeroAllocs(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(1, nopHandler{})
	bus.Register(2, nopHandler{})
	// A pathless message: coap.Decode copies option bytes so the decoded
	// message owns them (the codec's documented 2 allocs for a path
	// option); leaving the path empty isolates the transport's own path,
	// which must be allocation-free.
	msg := coap.NewRequest(coap.NonConfirmable, coap.POST, 7)
	// Warm the envelope pool, wire buffer, clock event pool, FIFO entry
	// and metric counters.
	for i := 0; i < 4; i++ {
		if err := bus.Send(1, 2, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := bus.Send(1, 2, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("send+deliver allocates %.1f times per message, want 0 (pooled envelopes)", allocs)
	}
	if n := len(bus.envFree); n < 1 {
		t.Errorf("envelope pool empty after quiescence, want the recycled envelope back")
	}
}
