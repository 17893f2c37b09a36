package transport

import (
	"strings"
	"testing"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// failureRecorder also captures give-up notifications.
type failureRecorder struct {
	recorder
	failed []coap.Message
	failTo []topology.NodeID
}

func (r *failureRecorder) HandleSendFailure(to topology.NodeID, msg coap.Message) {
	r.failed = append(r.failed, msg)
	r.failTo = append(r.failTo, to)
}

func newConRequest(mid uint16, path string) coap.Message {
	return coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: mid, Options: coap.PathOptions(path)}
}

// A clean reliable bus must deliver each message exactly once and settle
// every exchange: no retransmissions, no duplicates, Pending drains to 0.
func TestBusReliableCleanChannel(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(7)
	a, b := &recorder{}, &recorder{}
	bus.Register(1, a)
	bus.Register(2, b)
	for i := 0; i < 5; i++ {
		if err := bus.Send(1, 2, newConRequest(uint16(10+i), "intf")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.msgs); got != 5 {
		t.Fatalf("delivered %d messages, want 5", got)
	}
	for i, m := range b.msgs {
		if m.MessageID != uint16(10+i) {
			t.Fatalf("message %d out of order: MID %d", i, m.MessageID)
		}
		if m.Type != coap.Confirmable {
			t.Fatalf("message %d not upgraded to CON: %v", i, m.Type)
		}
	}
	if bus.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", bus.Pending())
	}
	f := bus.Faults()
	if f.Retransmissions != 0 || f.DuplicatesSuppressed != 0 || f.GiveUps != 0 {
		t.Errorf("clean channel did reliability work: %+v", f)
	}
	if f.AcksDelivered != 5 {
		t.Errorf("AcksDelivered = %d, want 5", f.AcksDelivered)
	}
	if bus.Delivered() != 5 {
		t.Errorf("Delivered = %d, want 5 (ACKs must not be tallied)", bus.Delivered())
	}
}

// Under Bernoulli loss the reliability layer must retransmit until every
// message lands exactly once (loss low enough that give-ups are absent at
// this seed) and the receiver must suppress retransmitted duplicates.
func TestBusReliableRecoversFromLoss(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(7)
	bus.SetFaults(FaultConfig{Drop: 0.3, Seed: 99})
	a, b := &recorder{}, &recorder{}
	bus.Register(1, a)
	bus.Register(2, b)
	const n = 20
	for i := 0; i < n; i++ {
		if err := bus.Send(1, 2, newConRequest(uint16(i), "part")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	f := bus.Faults()
	if f.GiveUps > 0 {
		t.Fatalf("unexpected give-ups at drop 0.3: %+v", f)
	}
	if got := len(b.msgs); got != n {
		t.Fatalf("delivered %d messages, want %d (faults: %+v)", got, n, f)
	}
	for i, m := range b.msgs {
		if m.MessageID != uint16(i) {
			t.Fatalf("message %d out of order: MID %d (NSTART=1 must keep FIFO)", i, m.MessageID)
		}
	}
	if f.Retransmissions == 0 || f.Dropped == 0 {
		t.Errorf("loss exercised no retransmissions: %+v", f)
	}
	if bus.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", bus.Pending())
	}
}

// Duplication faults must be absorbed by the Message-ID dedup cache: the
// handler sees each message once.
func TestBusReliableSuppressesDuplicates(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(7)
	bus.SetFaults(FaultConfig{Dup: 1.0, Seed: 5})
	b := &recorder{}
	bus.Register(1, &recorder{})
	bus.Register(2, b)
	const n = 10
	for i := 0; i < n; i++ {
		if err := bus.Send(1, 2, newConRequest(uint16(i), "sched")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.msgs); got != n {
		t.Fatalf("handler ran %d times, want %d", got, n)
	}
	f := bus.Faults()
	if f.Duplicated == 0 || f.DuplicatesSuppressed == 0 {
		t.Errorf("duplication faults not exercised: %+v", f)
	}
	if bus.Delivered() != n {
		t.Errorf("Delivered = %d, want %d", bus.Delivered(), n)
	}
}

// Without reliability, duplication faults double-deliver — that is the
// failure mode the CON layer exists to fix, and the tally must expose it.
func TestBusUnreliableDuplicatesReachHandler(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.SetFaults(FaultConfig{Dup: 1.0, Seed: 5})
	b := &recorder{}
	bus.Register(1, &recorder{})
	bus.Register(2, b)
	if err := bus.Send(1, 2, newConRequest(1, "intf")); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.msgs); got != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", got)
	}
}

// Sending to a crashed node must exhaust MAX_RETRANSMIT, notify the
// sender's FailureHandler, and leave the bus quiescent (no leaked pending
// exchange or timer). After Restart, traffic flows again.
func TestBusCrashGiveUpAndRestart(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(7)
	a := &failureRecorder{}
	b := &recorder{}
	bus.Register(1, a)
	bus.Register(2, b)
	bus.Crash(2)
	if !bus.Crashed(2) {
		t.Fatal("Crashed(2) = false after Crash")
	}
	if err := bus.Send(1, 2, newConRequest(77, "part")); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.msgs) != 0 {
		t.Fatalf("crashed node handled %d messages", len(b.msgs))
	}
	f := bus.Faults()
	if f.GiveUps != 1 {
		t.Fatalf("GiveUps = %d, want 1 (faults: %+v)", f.GiveUps, f)
	}
	if f.Retransmissions != 4 {
		t.Errorf("Retransmissions = %d, want MAX_RETRANSMIT (4)", f.Retransmissions)
	}
	if len(a.failed) != 1 || a.failed[0].MessageID != 77 || a.failTo[0] != 2 {
		t.Fatalf("failure notification wrong: %v -> %v", a.failed, a.failTo)
	}
	if bus.Pending() != 0 {
		t.Fatalf("Pending = %d after give-up, want 0", bus.Pending())
	}
	if bus.Clock().Pending() != 0 {
		t.Fatalf("clock holds %d stale events after give-up", bus.Clock().Pending())
	}

	bus.Restart(2)
	if err := bus.Send(1, 2, newConRequest(78, "part")); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.msgs) != 1 || b.msgs[0].MessageID != 78 {
		t.Fatalf("restarted node got %v, want MID 78", b.msgs)
	}
}

// A crashed sender's own queued exchanges and backlog are abandoned
// without leaking in-flight slots.
func TestBusCrashSenderDropsBacklog(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	bus.EnableReliability(7)
	bus.Register(1, &recorder{})
	bus.Register(2, &recorder{})
	for i := 0; i < 4; i++ { // one outstanding + three backlogged
		if err := bus.Send(1, 2, newConRequest(uint16(i), "intf")); err != nil {
			t.Fatal(err)
		}
	}
	if bus.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", bus.Pending())
	}
	bus.Crash(1)
	if bus.Pending() != 0 {
		t.Fatalf("Pending = %d after sender crash, want 0", bus.Pending())
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
}

// Satellite: a decode failure must be counted and surfaced without
// blackholing subsequent deliveries (the old bus latched the first error
// and silently dropped the rest of the run).
func TestBusDecodeErrorDoesNotBlackholeRun(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b := &recorder{}
	bus.Register(1, &recorder{})
	bus.Register(2, b)
	// A corrupt frame, queued by hand the way Send would.
	bad := &envelope{from: 1, to: 2, fi: bus.slot(1), ti: bus.slot(2), wire: []byte{0xff}, refs: 1}
	bus.inFlight++
	bus.clock.ScheduleIn(0, 0.5, func() { bus.deliver(bad, true) })
	if err := bus.Send(1, 2, newConRequest(9, "intf")); err != nil {
		t.Fatal(err)
	}
	if _, runErr := bus.Run(); runErr == nil {
		t.Fatal("Run did not report the decode error")
	} else if !strings.Contains(runErr.Error(), "decoding message") {
		t.Fatalf("unexpected error: %v", runErr)
	}
	if len(b.msgs) != 1 || b.msgs[0].MessageID != 9 {
		t.Fatalf("later delivery lost after decode error: got %v", b.msgs)
	}
	if bus.Faults().DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1", bus.Faults().DecodeErrors)
	}
	if len(bus.Errors()) != 1 {
		t.Errorf("Errors() returned %d entries, want 1", len(bus.Errors()))
	}
	if bus.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", bus.Pending())
	}
}

// Fault injection draws must come from their own stream: a clean-channel
// run makes identical latency draws whether or not SetFaults(0,0) ran, and
// identical to a bus that never heard of faults.
func TestBusFaultStreamDoesNotPerturbLatencies(t *testing.T) {
	run := func(configure func(*Bus)) []float64 {
		c := vclock.New()
		bus, err := NewBusOnClock(c, 100, 42)
		if err != nil {
			t.Fatal(err)
		}
		configure(bus)
		b := &recorder{}
		bus.Register(1, &recorder{})
		bus.Register(2, b)
		var times []float64
		for i := 0; i < 8; i++ {
			if err := bus.Send(1, 2, newConRequest(uint16(i), "x")); err != nil {
				t.Fatal(err)
			}
		}
		for c.Step() {
			times = append(times, c.Now())
		}
		return times
	}
	base := run(func(b *Bus) {})
	zeroFaults := run(func(b *Bus) { b.SetFaults(FaultConfig{}) })
	if len(base) != len(zeroFaults) {
		t.Fatalf("event counts differ: %d vs %d", len(base), len(zeroFaults))
	}
	for i := range base {
		if base[i] != zeroFaults[i] {
			t.Fatalf("delivery %d time differs: %v vs %v", i, base[i], zeroFaults[i])
		}
	}
}
