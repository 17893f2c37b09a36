package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024} {
		h.Observe(v)
	}
	if h.Count != 9 {
		t.Fatalf("Count = %d, want 9", h.Count)
	}
	if h.Min != 0 || h.Max != 1024 {
		t.Errorf("Min/Max = %d/%d, want 0/1024", h.Min, h.Max)
	}
	// bits.Len64: 0->bucket 0; 1->1; 2,3->2; 4..7->3; 8->4; 1023->10; 1024->11.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %d, want 0", q)
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// Rank 50 lands in bucket 6 (values 32..63); the bucket upper bound is 63.
	if q := h.Quantile(0.5); q != 63 {
		t.Errorf("p50 = %d, want 63", q)
	}
	// The top quantile clamps to the exact observed max.
	if q := h.Quantile(1); q != 100 {
		t.Errorf("p100 = %d, want 100", q)
	}
	// A single observation: every quantile is that value (clamped to Min).
	var one Hist
	one.Observe(40)
	if q := one.Quantile(0.01); q != 40 {
		t.Errorf("single-observation p1 = %d, want 40", q)
	}
}

func TestHistMergeCommutative(t *testing.T) {
	var a, b Hist
	for _, v := range []int64{1, 5, 900} {
		a.Observe(v)
	}
	for _, v := range []int64{0, 7, 12345} {
		b.Observe(v)
	}
	ab, ba := a, b
	ab.Merge(&b)
	ba.Merge(&a)
	if ab != ba {
		t.Errorf("merge is not commutative: %+v vs %+v", ab, ba)
	}
	if ab.Count != 6 || ab.Min != 0 || ab.Max != 12345 {
		t.Errorf("merged stats wrong: %+v", ab)
	}
}

func TestWindowSeries(t *testing.T) {
	w := &WindowSeries{Width: 10}
	w.Add(0, 1)
	w.Add(9, 1)
	w.Add(10, 5)
	w.Add(35, 2)
	if got := w.Values(); len(got) != 4 || got[0] != 2 || got[1] != 5 || got[2] != 0 || got[3] != 2 {
		t.Errorf("Values = %v, want [2 5 0 2]", got)
	}
	w.Set(1, 42)
	if w.At(1) != 42 {
		t.Errorf("At(1) = %d after Set, want 42", w.At(1))
	}
	if w.At(99) != 0 {
		t.Errorf("At beyond range = %d, want 0", w.At(99))
	}
	// Out-of-domain inputs are no-ops, not panics.
	w.Add(-1, 1)
	w.Set(-1, 1)
	(&WindowSeries{}).Add(5, 1) // zero width
	if w.Len() != 4 {
		t.Errorf("Len = %d, want 4", w.Len())
	}
}

// Zero-alloc guards for the telemetry hot paths: enabled observation
// into warmed storage and the nil-receiver disabled path both must not
// allocate (the harplint hotpath pass proves the same statically).
func TestHistObserveZeroAlloc(t *testing.T) {
	var h Hist
	if allocs := testing.AllocsPerRun(100, func() { h.Observe(37) }); allocs != 0 {
		t.Errorf("Hist.Observe allocates %v per run, want 0", allocs)
	}
	var nilH *Hist
	if allocs := testing.AllocsPerRun(100, func() { nilH.Observe(37) }); allocs != 0 {
		t.Errorf("nil Hist.Observe allocates %v per run, want 0", allocs)
	}
}

func TestWindowSeriesAddZeroAlloc(t *testing.T) {
	w := &WindowSeries{Width: 10}
	w.Add(50, 1) // warm the backing slice past the test's window
	if allocs := testing.AllocsPerRun(100, func() { w.Add(42, 1) }); allocs != 0 {
		t.Errorf("WindowSeries.Add allocates %v per run, want 0", allocs)
	}
	var nilW *WindowSeries
	if allocs := testing.AllocsPerRun(100, func() { nilW.Add(42, 1) }); allocs != 0 {
		t.Errorf("nil WindowSeries.Add allocates %v per run, want 0", allocs)
	}
}

// TestSnapshotOrdering pins the exporter contract: every snapshot
// section iterates in (node, layer, kind) ascending order.
func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	keys := []MetricKey{
		LayerKey(2, 1, "b.kind"),
		Key("z.global"),
		NodeKey(1, "a.kind"),
		LayerKey(2, 0, "c.kind"),
		NodeKey(1, "z.kind"),
		Key("a.global"),
	}
	for _, k := range keys {
		r.Inc(k)
		r.Dist(k).Observe(1)
		r.Series(k, 10).Add(0, 1)
	}
	s := r.Snapshot()
	sections := map[string][]MetricKey{}
	for _, c := range s.Counters {
		sections["counters"] = append(sections["counters"], c.Key)
	}
	for _, d := range s.Dists {
		sections["dists"] = append(sections["dists"], d.Key)
	}
	for _, w := range s.Series {
		sections["series"] = append(sections["series"], w.Key)
	}
	for name, got := range sections {
		if len(got) != len(keys) {
			t.Fatalf("%s: %d keys, want %d", name, len(got), len(keys))
		}
		for i := 1; i < len(got); i++ {
			if !lessNLK(got[i-1], got[i]) {
				t.Errorf("%s: keys out of (node, layer, kind) order at %d: %+v then %+v",
					name, i, got[i-1], got[i])
			}
		}
	}
	// None (-1) sorts global keys ahead of node-scoped ones: the first
	// counter must be a global key, the last the deepest node-scoped one.
	first, last := sections["counters"][0], sections["counters"][len(keys)-1]
	if first.Node != None || last.Node != 2 {
		t.Errorf("ordering anchor wrong: first %+v last %+v", first, last)
	}
}

// TestResetPreservesDistributions pins the Reset contract: counters
// clear; run-cumulative dists and series stay.
func TestResetPreservesDistributions(t *testing.T) {
	r := NewRegistry()
	k := Key("x.kind")
	r.Inc(k)
	r.Dist(k).Observe(4)
	r.Series(k, 10).Add(0, 5)
	r.Reset()
	if r.Counter(k) != 0 {
		t.Error("Reset left a counter value behind")
	}
	if h, ok := r.DistStat(k); !ok || h.Count != 1 {
		t.Errorf("Reset cleared the distribution: %+v ok=%t", h, ok)
	}
	if _, vals, ok := r.SeriesStat(k); !ok || len(vals) != 1 || vals[0] != 5 {
		t.Errorf("Reset cleared the windowed series: %v ok=%t", vals, ok)
	}
}

func TestEvalHealth(t *testing.T) {
	r := NewRegistry()
	r.Dist(Key(MetricEscCommitMs)).Observe(1500)
	budgets := []Budget{{Kind: MetricEscCommitMs, Max: 2000}}
	rep := EvalHealth(r, true, 0, budgets)
	if !rep.OK || len(rep.Checks) != 1 || !rep.Checks[0].OK {
		t.Errorf("within-budget run unhealthy: %+v", rep)
	}
	// Breach the max.
	r.Dist(Key(MetricEscCommitMs)).Observe(5000)
	if rep := EvalHealth(r, true, 0, budgets); rep.OK {
		t.Errorf("max breach not flagged: %+v", rep)
	}
	// Orphans or non-convergence fail the fold even with clean checks.
	if rep := EvalHealth(r, true, 3, nil); rep.OK {
		t.Error("orphans remaining did not fail the report")
	}
	if rep := EvalHealth(r, false, 0, nil); rep.OK {
		t.Error("non-convergence did not fail the report")
	}
	// Empty distributions pass their checks (nothing to grade).
	empty := EvalHealth(NewRegistry(), true, 0, DefaultBudgets(199))
	if !empty.OK {
		t.Errorf("empty registry unhealthy: %+v", empty)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "health:") {
		t.Errorf("WriteText output unexpected: %q", sb.String())
	}
}

// TestWritePrometheusDeterministic pins the exposition: identical
// registries render byte-identical text, families sorted by name.
func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Inc(Key(MetricDelivered))
		r.Add(NodeKey(3, MetricNodeTx), 7)
		d := r.Dist(Key(MetricConRttMs))
		d.Observe(90)
		d.Observe(1500)
		return r
	}
	var a, b strings.Builder
	if err := WritePrometheus(&a, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	text := a.String()
	for _, want := range []string{
		"# TYPE harp_coap_delivered counter\n",
		"harp_coap_node_tx{node=\"3\"} 7\n",
		"# TYPE harp_transport_con_rtt_ms histogram\n",
		"harp_transport_con_rtt_ms_bucket{le=\"127\"} 1\n",
		"harp_transport_con_rtt_ms_bucket{le=\"+Inf\"} 2\n",
		"harp_transport_con_rtt_ms_sum 1590\n",
		"harp_transport_con_rtt_ms_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Families are sorted by name.
	var prev string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if prev != "" && name < prev {
			t.Errorf("families out of order: %s after %s", name, prev)
		}
		prev = name
	}
}

func TestReconstructSLO(t *testing.T) {
	events := []Event{
		{VT: 0, Kind: KindMeta, Detail: Meta{SlotsPerFrame: 100, SlotSeconds: 0.01, Nodes: 3}.Detail()},
		{VT: 10, Kind: KindCosimTrigger, Slot: 10},
		{VT: 12, Kind: KindAgentEscalate, Node: 5, Layer: 1},
		{VT: 13, Kind: KindCoapTx, Node: 5, Peer: 2},
		{VT: 15.5, Kind: KindCoapAck, Node: 5, Peer: 2},
		{VT: 20, Kind: KindAgentCommit, Node: 5, Layer: 1},
		{VT: 30, Kind: KindCosimCommit, Slot: 30},
		{VT: 40, Kind: KindAgentSuspect, Node: 7},
		{VT: 55, Kind: KindAgentAdopt, Node: 8, Peer: 2, Detail: "dead=7"},
	}
	s := ReconstructSLO(events)
	if !s.Converged() || s.Triggers != 1 || s.Commits != 1 {
		t.Errorf("convergence wrong: %+v", s)
	}
	if s.EscCommit.Count != 1 || s.EscCommit.Max != 8000 {
		t.Errorf("esc->commit = %+v, want one 8000ms observation", s.EscCommit)
	}
	if s.ConRtt.Count != 1 || s.ConRtt.Max != 2500 {
		t.Errorf("CON RTT = %+v, want one 2500ms observation", s.ConRtt)
	}
	if s.DetectAdopt.Count != 1 || s.DetectAdopt.Max != 15000 {
		t.Errorf("detect->adopt = %+v, want one 15000ms observation", s.DetectAdopt)
	}
	if s.Disruption.Count != 1 || s.Disruption.Max != 20000 {
		t.Errorf("disruption = %+v, want one 20000ms observation", s.Disruption)
	}
	// An unwind drops the escalation stamp: no observation on a later commit.
	unwound := ReconstructSLO([]Event{
		{VT: 1, Kind: KindAgentEscalate, Node: 5, Layer: 1},
		{VT: 2, Kind: KindAgentUnwind, Node: 5, Layer: 1},
		{VT: 3, Kind: KindAgentCommit, Node: 5, Layer: 1},
	})
	if unwound.EscCommit.Count != 0 {
		t.Errorf("unwound escalation observed: %+v", unwound.EscCommit)
	}
	// A give-up consumes the FIFO slot without an RTT observation.
	gaveUp := ReconstructSLO([]Event{
		{VT: 1, Kind: KindCoapTx, Node: 5, Peer: 2},
		{VT: 90, Kind: KindCoapGiveUp, Node: 5, Peer: 2},
	})
	if gaveUp.ConRtt.Count != 0 {
		t.Errorf("given-up exchange observed an RTT: %+v", gaveUp.ConRtt)
	}
	// EvalHealth over the reconstruction grades like a live run.
	rep := EvalHealth(s.Registry(), s.Converged(), 0, DefaultBudgets(100))
	if !rep.OK {
		t.Errorf("reconstructed report unhealthy: %+v", rep)
	}
}

func TestReconstructSeries(t *testing.T) {
	events := []Event{
		{VT: 0, Kind: KindCoapTx},
		{VT: 5, Kind: KindCoapTx},
		{VT: 10, Kind: KindCoapTx},
		{VT: 25, Kind: KindMacCollision},
	}
	series := ReconstructSeries(events, 10)
	if got := series[KindCoapTx].Values(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("coap.tx windows = %v, want [2 1]", got)
	}
	if got := series[KindMacCollision].Values(); len(got) != 3 || got[2] != 1 {
		t.Errorf("mac.collision windows = %v, want [0 0 1]", got)
	}
	if got := ReconstructSeries(events, 0); len(got) != 0 {
		t.Errorf("zero width produced series: %v", got)
	}
}

func TestQuantileExtremes(t *testing.T) {
	var h Hist
	h.Observe(math.MaxInt64)
	if h.Buckets[63] != 1 {
		t.Errorf("MaxInt64 not in bucket 63: %v", h.Buckets[63])
	}
	if q := h.Quantile(0.5); q != math.MaxInt64 {
		t.Errorf("p50 of MaxInt64 = %d", q)
	}
}
