package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/harpnet/harp/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// sampleTrace is a hand-authored miniature adjustment covering every
// optional field shape: set and unset dimensions, roots and parented
// events, details with and without content.
func sampleTrace() []Event {
	return []Event{
		{VT: 0, Span: 1, Kind: KindMeta, Node: None, Peer: None, Layer: None, Slot: None, Channel: None,
			Detail: Meta{SlotsPerFrame: 10, SlotSeconds: 0.01, Nodes: 4}.Detail()},
		{VT: 20, Span: 2, Kind: KindCosimTrigger, Node: None, Peer: None, Layer: None, Slot: 20, Channel: None,
			Detail: "rate step"},
		{VT: 20, Span: 3, Parent: 2, Kind: KindCoapTx, Node: 3, Peer: 1, Layer: None, Slot: None, Channel: None,
			Detail: "POST intf"},
		{VT: 21.5, Span: 4, Parent: 3, Kind: KindCoapRx, Node: 1, Peer: 3, Layer: None, Slot: None, Channel: None,
			Detail: "POST intf"},
		{VT: 21.5, Span: 5, Parent: 4, Kind: KindAgentEscalate, Node: 1, Peer: None, Layer: 2, Slot: None, Channel: None,
			Detail: "comp 1"},
		{VT: 24, Span: 6, Parent: 3, Kind: KindCoapRetx, Node: 3, Peer: 1, Layer: None, Slot: None, Channel: None},
		{VT: 30, Span: 7, Kind: KindMacTx, Node: 2, Peer: 0, Layer: None, Slot: 30, Channel: 5},
		{VT: 41, Span: 8, Parent: 2, Kind: KindCosimCommit, Node: None, Peer: None, Layer: None, Slot: 41, Channel: None,
			Detail: "msgs=6"},
	}
}

func TestTracerStampsAndParents(t *testing.T) {
	c := vclock.New()
	tr := NewTracer(c)
	var rxSpan uint64
	c.ScheduleIn(0, 2.5, func() {
		txSpan := tr.Emit(Ev(KindCoapTx).WithNode(3).WithPeer(1).WithDetail("PUT intf"))
		c.ScheduleIn(0, 4, func() {
			rxSpan = tr.Emit(Ev(KindCoapRx).WithNode(1).WithPeer(3).WithParent(txSpan))
			tr.Push(rxSpan)
			defer tr.Pop()
			tr.Emit(Ev(KindAgentGrant).WithNode(1).WithLayer(2))
		})
	})
	c.Run()
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].VT != 2.5 || evs[0].Parent != 0 {
		t.Errorf("tx event = %+v, want vt 2.5 root", evs[0])
	}
	if evs[1].VT != 4 || evs[1].Parent != evs[0].Span {
		t.Errorf("rx event = %+v, want vt 4 parent %d", evs[1], evs[0].Span)
	}
	if evs[2].Parent != rxSpan {
		t.Errorf("grant parent = %d, want the rx span %d (from the span stack)", evs[2].Parent, rxSpan)
	}
	if evs[0].Span >= evs[1].Span || evs[1].Span >= evs[2].Span {
		t.Errorf("spans not ascending: %d %d %d", evs[0].Span, evs[1].Span, evs[2].Span)
	}
}

func TestTracerStackResetsPerDispatch(t *testing.T) {
	c := vclock.New()
	tr := NewTracer(c)
	c.ScheduleIn(0, 1, func() {
		tr.Push(tr.Emit(Ev(KindCoapRx).WithNode(1)))
		// Deliberately no Pop: the next dispatch must not inherit it.
	})
	c.ScheduleIn(0, 2, func() {
		if got := tr.Current(); got != 0 {
			t.Errorf("span stack leaked across dispatches: current = %d, want 0", got)
		}
	})
	c.Run()
}

func TestNilTracerDisabledAndAllocFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v, want nil", got)
	}
	n := int(testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			tr.Emit(Ev(KindCoapTx).WithNode(1).WithPeer(2))
		}
	}))
	if n != 0 {
		t.Fatalf("disabled hook pattern allocates %d times per run, want 0", n)
	}
}

func TestJSONLGoldenAndRoundTrip(t *testing.T) {
	events := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSONL output drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", back, events)
	}
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sample_chrome.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome output drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Inc(Key(MetricDelivered))
	r.Add(Key(MetricDelivered), 2)
	r.Inc(NodeKey(3, MetricNodeRx))
	r.Inc(NodeKey(1, MetricNodeRx))
	r.Inc(NodeKey(3, MetricNodeTx))
	r.Inc(LayerKey(1, 2, MetricEscalations))
	if got := r.Counter(Key(MetricDelivered)); got != 3 {
		t.Errorf("delivered = %d, want 3", got)
	}
	if got := r.SumKind(MetricNodeRx); got != 2 {
		t.Errorf("sum node_rx = %d, want 2", got)
	}
	if got := r.Nodes(MetricNodeTx, MetricNodeRx); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("participant nodes = %v, want [1 3]", got)
	}
	keys := r.CounterKeys()
	for i := 1; i < len(keys); i++ {
		a, b := keys[i-1], keys[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Node > b.Node) {
			t.Errorf("counter keys unsorted: %v before %v", a, b)
		}
	}
	r.Reset()
	if got := r.Counter(Key(MetricDelivered)); got != 0 {
		t.Errorf("delivered after reset = %d, want 0", got)
	}

	var nilReg *Registry
	nilReg.Inc(Key("x"))
	if nilReg.Counter(Key("x")) != 0 || nilReg.CounterKeys() != nil || nilReg.Nodes("x") != nil {
		t.Error("nil registry is not a zero no-op")
	}
}

func TestFilterAndSummarize(t *testing.T) {
	events := sampleTrace()
	f := NewFilter()
	f.Node = 1
	got := f.Apply(events)
	// Events touching node 1: spans 3 (peer), 4 (node), 5 (node), 6 (peer).
	if len(got) != 4 {
		t.Fatalf("node filter kept %d events, want 4: %+v", len(got), got)
	}
	f = NewFilter()
	f.Kinds = []string{"coap"}
	if got := f.Apply(events); len(got) != 3 {
		t.Fatalf("kind-prefix filter kept %d events, want 3", len(got))
	}
	f = NewFilter()
	f.MinVT, f.MaxVT = 21, 30
	if got := f.Apply(events); len(got) != 4 {
		t.Fatalf("vt-window filter kept %d events, want 4", len(got))
	}
	sum := Summarize(events)
	if len(sum) != 8 {
		t.Fatalf("summary has %d kinds, want 8: %+v", len(sum), sum)
	}
	for i := 1; i < len(sum); i++ {
		if sum[i-1].Kind >= sum[i].Kind {
			t.Errorf("summary unsorted at %d: %v >= %v", i, sum[i-1].Kind, sum[i].Kind)
		}
	}
}

func TestWindows(t *testing.T) {
	events := sampleTrace()
	ws := Windows(events)
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	w := ws[0]
	if w.TriggerSlot != 20 || w.CommitSlot != 41 || w.Slots != 21 {
		t.Errorf("window = %+v, want trigger 20 commit 41 slots 21", w)
	}
	if w.Events != 5 {
		t.Errorf("window events = %d, want 5", w.Events)
	}
	meta, ok := TraceMeta(events)
	if !ok {
		t.Fatal("no trace meta")
	}
	if got := w.Seconds(meta); got != 0.21 {
		t.Errorf("window seconds = %g, want 0.21", got)
	}
	if got := w.Slotframes(meta); got != 3 {
		t.Errorf("window slotframes = %d, want 3", got)
	}
	wantPhases := []string{"agent", "coap", "mac"}
	if len(w.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want layers %v", w.Phases, wantPhases)
	}
	for i, p := range w.Phases {
		if p.Layer != wantPhases[i] {
			t.Errorf("phase %d layer = %q, want %q", i, p.Layer, wantPhases[i])
		}
	}
	coap := w.Phases[1]
	if coap.Count != 3 || coap.FirstVT != 20 || coap.LastVT != 24 {
		t.Errorf("coap phase = %+v, want count 3 first 20 last 24", coap)
	}
}

func TestTraceMetaRoundTrip(t *testing.T) {
	m := Meta{SlotsPerFrame: 199, SlotSeconds: 0.01, Nodes: 50}
	events := []Event{{Kind: KindMeta, Detail: m.Detail()}}
	got, ok := TraceMeta(events)
	if !ok || got != m {
		t.Fatalf("meta round trip = %+v ok=%t, want %+v", got, ok, m)
	}
	if _, ok := TraceMeta(nil); ok {
		t.Error("meta found in empty trace")
	}
}

func TestRecoveryWindows(t *testing.T) {
	events := []Event{
		Ev(KindAgentSuspect).WithNode(5),
		{Kind: KindAgentSuspect, Node: 5, VT: 800, Peer: None, Layer: None, Slot: None, Channel: None},
		{Kind: KindAgentDead, Node: 5, VT: 1600, Peer: None, Layer: None, Slot: None, Channel: None},
		{Kind: KindAgentAdopt, Node: 8, Peer: 4, VT: 1600, Layer: None, Slot: None, Channel: None, Detail: "dead=5"},
		{Kind: KindAgentAdopt, Node: 9, Peer: 4, VT: 1700, Layer: None, Slot: None, Channel: None, Detail: "dead=5"},
		{Kind: KindAgentReadmit, Node: 5, VT: 3200, Peer: None, Layer: None, Slot: None, Channel: None},
		{Kind: KindAgentDead, Node: 7, VT: 2000, Peer: None, Layer: None, Slot: None, Channel: None},
	}
	wins := RecoveryWindows(events)
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	w := wins[0]
	if w.Node != 5 || w.SuspectVT != 800 || w.DeadVT != 1600 {
		t.Errorf("window 0 = %+v, want node 5 suspect 800 dead 1600", w)
	}
	if w.Adoptions != 2 || w.LastAdoptVT != 1700 {
		t.Errorf("window 0 adoptions = %d last %v, want 2 by 1700", w.Adoptions, w.LastAdoptVT)
	}
	if w.ReadmitVT != 3200 {
		t.Errorf("window 0 readmit = %v, want 3200", w.ReadmitVT)
	}
	// Node 7 died with no suspicion in the trace, no orphans, no comeback.
	w = wins[1]
	if w.Node != 7 || w.SuspectVT != 2000 || w.Adoptions != 0 || w.ReadmitVT != -1 {
		t.Errorf("window 1 = %+v, want node 7, suspect=dead vt, no adoptions, no readmit", w)
	}
}

// TestRegistryCells: a Cell is a cache slot. Holding one (even one resolved
// earlier) lists nothing; writing through it is the same as writing by
// key; and a cell resolved before a Reset counts into the fresh counter
// after it.
func TestRegistryCells(t *testing.T) {
	r := NewRegistry()
	r.Inc(NodeKey(7, MetricNodeRx))
	before := r.Snapshot()
	keysBefore := r.CounterKeys()

	var delivered, idle Cell
	if got := r.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Errorf("holding unwritten cells changed the snapshot: %+v", got)
	}
	if got := r.CounterKeys(); !reflect.DeepEqual(got, keysBefore) {
		t.Errorf("holding unwritten cells changed CounterKeys: %v", got)
	}

	k := Key(MetricDelivered)
	r.AddCell(&delivered, k, 2)
	r.Inc(k)
	r.AddCell(&delivered, k, 1)
	if got := r.Counter(k); got != 4 {
		t.Errorf("by cell and by key = %d, want 4", got)
	}
	// Many other counters (the table grows and is refilled) must not move
	// what the cell points at.
	for n := 0; n < 1000; n++ {
		r.Inc(NodeKey(n, MetricNodeTx))
	}
	r.AddCell(&delivered, k, 1)
	if got := r.Counter(k); got != 5 {
		t.Errorf("after table growth = %d, want 5", got)
	}
	if got := len(r.Nodes(MetricNodeTx)); got != 1000 {
		t.Errorf("%d tx nodes, want 1000", got)
	}

	r.Reset()
	if got := len(r.Snapshot().Counters) + len(r.CounterKeys()); got != 0 {
		t.Errorf("after Reset %d counters listed, want none (the resolved cell lists nothing)", got)
	}
	r.Inc(NodeKey(1, MetricNodeRx)) // takes the slab position the stale cell remembers
	r.AddCell(&delivered, k, 3)
	if got := r.Counter(k); got != 3 {
		t.Errorf("cell taken before Reset counted %d into the fresh counter, want 3", got)
	}
	if got := r.Counter(NodeKey(1, MetricNodeRx)); got != 1 {
		t.Errorf("stale cell wrote into another counter: node_rx = %d, want 1", got)
	}
	want := []MetricKey{k, NodeKey(1, MetricNodeRx)}
	if got := r.CounterKeys(); !reflect.DeepEqual(got, want) {
		t.Errorf("CounterKeys = %v, want %v (the idle cell's counter is not listed)", got, want)
	}

	var nilReg *Registry
	nilReg.AddCell(&idle, k, 1) // no-op, like every method of the nil registry
	if allocs := testing.AllocsPerRun(100, func() { r.AddCell(&delivered, k, 1) }); allocs != 0 {
		t.Errorf("AddCell allocates %.1f times per call, want 0", allocs)
	}
}
