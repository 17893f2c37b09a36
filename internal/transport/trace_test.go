package transport

import (
	"testing"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/obs"
)

// TestBusTraceCausality checks the transport's trace hooks: every delivery
// produces a coap.tx/coap.rx pair, and the rx event is parented to the tx
// span so an exchange replays as a causal chain.
func TestBusTraceCausality(t *testing.T) {
	bus, err := NewBus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(bus.Clock())
	bus.SetTracer(tracer)
	a, b := &recorder{}, &recorder{}
	bus.Register(1, a)
	bus.Register(2, b)
	if err := bus.Send(1, 2, coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	events := tracer.Events()
	var tx, rx *obs.Event
	for i := range events {
		switch events[i].Kind {
		case obs.KindCoapTx:
			tx = &events[i]
		case obs.KindCoapRx:
			rx = &events[i]
		}
	}
	if tx == nil || rx == nil {
		t.Fatalf("missing tx/rx events in trace: %+v", events)
	}
	if rx.Parent != tx.Span {
		t.Errorf("rx parent %d != tx span %d", rx.Parent, tx.Span)
	}
	if tx.Node != 1 || tx.Peer != 2 || rx.Node != 2 || rx.Peer != 1 {
		t.Errorf("endpoints wrong: tx %+v rx %+v", tx, rx)
	}
	if rx.VT <= tx.VT {
		t.Errorf("rx at vt %v not after tx at vt %v", rx.VT, tx.VT)
	}
}

// TestBusCountZeroAllocs pins the delivery tally's cost with tracing
// disabled: after the first delivery of a message class warms the kind
// cache, counting allocates nothing — the hooks are free when off.
func TestBusCountZeroAllocs(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(1, nopHandler{})
	bus.Register(2, nopHandler{})
	msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}
	e := &envelope{from: 1, to: 2, fi: bus.slot(1), ti: bus.slot(2)}
	bus.count(msg, e) // warm the class table and the counter cells
	if allocs := testing.AllocsPerRun(100, func() {
		bus.count(msg, e)
	}); allocs != 0 {
		t.Errorf("count() allocates %.1f times per delivery with tracing off, want 0", allocs)
	}
	if tr := bus.tracer; tr.Enabled() {
		t.Fatal("tracer unexpectedly enabled on a fresh bus")
	}
}

// BenchmarkBusDeliverDisabledTracer measures the full send+deliver hot path
// with the tracer disabled (the default); run with -benchmem to watch the
// per-message allocation budget.
func BenchmarkBusDeliverDisabledTracer(b *testing.B) {
	bus, err := NewBus(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	sink := &recorder{}
	bus.Register(1, sink)
	bus.Register(2, sink)
	msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bus.Send(1, 2, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := bus.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
