package cosim

import (
	"reflect"
	"testing"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// healingCoSim builds a Fig1 co-simulation with a reliable control plane
// and self-healing enabled (fast thresholds: sweep every slotframe,
// suspect after 2, dead after 4).
func healingCoSim(t *testing.T, seed int64) (*CoSim, *agent.Detector, *traffic.Set) {
	t.Helper()
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(Config{
		Tree:     tree,
		Frame:    testFrame(),
		Tasks:    tasks,
		PDR:      1,
		Seed:     seed,
		Reliable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sf := float64(testFrame().Slots)
	det, err := cs.EnableSelfHealing(agent.DetectorConfig{
		Interval:     sf,
		SuspectAfter: 2 * sf,
		DeadAfter:    4 * sf,
		AbortAfter:   80 * sf,
		Seed:         seed,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	return cs, det, tasks
}

// TestDetectorDiscoversDeathAndAdopts crashes the non-leaf node 5
// (children 8, 9) without telling anyone: the detector must notice the
// silence, declare it dead, and re-home both orphans under its sibling 4.
func TestDetectorDiscoversDeathAndAdopts(t *testing.T) {
	cs, det, _ := healingCoSim(t, 1)
	frame := testFrame().Slots
	cs.At(frame, func(cs *CoSim) { cs.Bus.Crash(5) })
	if err := cs.RunSlotframes(10); err != nil {
		t.Fatal(err)
	}
	if err := det.Err(); err != nil {
		t.Fatal(err)
	}
	if !det.Dead(5) {
		t.Fatal("node 5 not declared dead")
	}
	if len(det.Deaths) != 1 || det.Deaths[0].Node != 5 {
		t.Fatalf("deaths = %+v, want exactly node 5", det.Deaths)
	}
	if d := det.Deaths[0]; d.SuspectedAt >= d.DeclaredAt {
		t.Errorf("suspect window inverted: %+v", d)
	}
	if len(det.Adoptions) != 2 {
		t.Fatalf("adoptions = %+v, want 8 and 9", det.Adoptions)
	}
	for _, a := range det.Adoptions {
		if a.DeadParent != 5 || a.NewParent != 4 {
			t.Errorf("adoption %+v, want dead parent 5, new parent 4", a)
		}
	}
	if p, err := cs.Fleet.Tree.Parent(8); err != nil || p != 4 {
		t.Errorf("node 8 parent = %d (%v), want 4", p, err)
	}
	if err := invariant.CheckNoOrphans(cs.Fleet.Tree, det.DeadOrCrashed); err != nil {
		t.Error(err)
	}
	// A no-op adjustment commits the healed schedule into the MAC once the
	// adoption traffic has drained (the grant cascade with retransmission
	// backoff takes several slotframes even against live peers).
	if err := cs.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := cs.RunSlotframes(8); err != nil {
		t.Fatal(err)
	}
	if !cs.Quiesced() {
		t.Fatal("heal did not quiesce")
	}
	if err := cs.Fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after heal: %v", err)
	}
	// The healed schedule still carries the orphans' links.
	sched, err := cs.Fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	for _, child := range []topology.NodeID{8, 9} {
		if len(sched.Cells(topology.Link{Child: child, Direction: topology.Uplink})) == 0 {
			t.Errorf("no uplink cells for adopted node %d", child)
		}
	}
}

// TestDetectorReadmitsRestartedNode takes leaf 8 down long enough to be
// declared dead, restarts its transport, and expects the detector to
// discover the comeback and re-attach it under its unchanged parent.
func TestDetectorReadmitsRestartedNode(t *testing.T) {
	cs, det, _ := healingCoSim(t, 2)
	frame := testFrame().Slots
	cs.At(frame, func(cs *CoSim) { cs.Bus.Crash(8) })
	cs.At(8*frame, func(cs *CoSim) { cs.Bus.Restart(8) })
	if err := cs.RunSlotframes(14); err != nil {
		t.Fatal(err)
	}
	if err := det.Err(); err != nil {
		t.Fatal(err)
	}
	if len(det.Deaths) != 1 || det.Deaths[0].Node != 8 {
		t.Fatalf("deaths = %+v, want exactly node 8", det.Deaths)
	}
	if det.Readmissions != 1 {
		t.Fatalf("readmissions = %d, want 1", det.Readmissions)
	}
	if det.Dead(8) {
		t.Error("node 8 still considered dead after readmission")
	}
	if err := cs.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := cs.RunSlotframes(2); err != nil {
		t.Fatal(err)
	}
	if err := cs.Fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after readmission: %v", err)
	}
	sched, err := cs.Fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Cells(topology.Link{Child: 8, Direction: topology.Uplink})) == 0 {
		t.Error("no uplink cells for readmitted node 8")
	}
}

// TestDetectorRidesOutShortFlap downs a leaf's parent link for less than
// the dead threshold: nobody may die.
func TestDetectorRidesOutShortFlap(t *testing.T) {
	cs, det, _ := healingCoSim(t, 3)
	frame := testFrame().Slots
	cs.At(frame, func(cs *CoSim) { cs.Bus.SetLinkDown(8, 5) })
	cs.At(3*frame, func(cs *CoSim) { cs.Bus.SetLinkUp(8, 5) })
	if err := cs.RunSlotframes(10); err != nil {
		t.Fatal(err)
	}
	if len(det.Deaths) != 0 {
		t.Errorf("deaths after short flap: %+v", det.Deaths)
	}
	if len(det.Adoptions) != 0 {
		t.Errorf("adoptions after short flap: %+v", det.Adoptions)
	}
}

// chaosScenario runs a scripted storm on the 50-node testbed tree at the
// given shard count and returns the report plus the raw records.
func chaosScenario(t *testing.T, shards int) (ChaosReport, []agent.DeathRecord, []agent.AdoptionRecord) {
	t.Helper()
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(Config{
		Tree:     tree,
		Frame:    testFrame(),
		Tasks:    tasks,
		PDR:      1,
		Seed:     7,
		Reliable: true,
		Shards:   shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	sf := float64(testFrame().Slots)
	det, err := cs.EnableSelfHealing(agent.DetectorConfig{
		Interval:     sf,
		SuspectAfter: 2 * sf,
		DeadAfter:    4 * sf,
		AbortAfter:   80 * sf,
		Seed:         7,
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChaos(cs, det, ChaosConfig{
		Seed:              7,
		CrashFraction:     0.15,
		PermanentFraction: 0.5,
		StartSlot:         testFrame().Slots,
		SpreadSlots:       2 * testFrame().Slots,
		DowntimeSlots:     7 * testFrame().Slots,
		LinkFlaps:         3,
		FlapSlots:         testFrame().Slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Run(25); err != nil {
		t.Fatal(err)
	}
	if err := det.Err(); err != nil {
		t.Fatal(err)
	}
	// The drain must outlast the CON give-up backoff (~62 slotframes):
	// exchanges toward permanent victims retransmit for that long before
	// the transport abandons them and Pending() can reach zero.
	if err := cs.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := cs.RunSlotframes(70); err != nil {
		t.Fatal(err)
	}
	if !cs.Quiesced() {
		t.Fatal("storm did not quiesce")
	}
	if err := cs.Fleet.Validate(); err != nil {
		t.Fatalf("fleet invalid after storm: %v", err)
	}
	return ch.Report(), det.Deaths, det.Adoptions
}

// TestChaosStormHealsCompletely runs a 15% crash storm (half permanent)
// over the 50-node testbed: every surviving node must be re-homed, the
// final schedule valid, and every permanent victim declared dead.
func TestChaosStormHealsCompletely(t *testing.T) {
	rep, deaths, _ := chaosScenario(t, 0)
	if rep.Victims == 0 || rep.PermanentVictims == 0 {
		t.Fatalf("storm drew no victims: %+v", rep)
	}
	if rep.Deaths < rep.PermanentVictims {
		t.Errorf("deaths %d < permanent victims %d: a permanent outage went undetected",
			rep.Deaths, rep.PermanentVictims)
	}
	if rep.OrphansRemaining != 0 {
		t.Errorf("orphans remaining = %d, want 0", rep.OrphansRemaining)
	}
	// While the heal is in flight the assembled schedule fails validation,
	// so availability over the 25-frame storm window sits well below 1 —
	// but the pre-storm and post-heal boundaries keep it off the floor.
	if rep.Availability <= 0.15 || rep.Availability >= 1 {
		t.Errorf("availability = %v, want in (0.15, 1)", rep.Availability)
	}
	if rep.DetectMaxSf <= 0 {
		t.Errorf("detection latency not measured: %+v", rep)
	}
	if len(deaths) != rep.Deaths {
		t.Errorf("report deaths %d != records %d", rep.Deaths, len(deaths))
	}
}

// TestChaosShardEquivalence re-runs the identical storm on a sharded
// virtual-time kernel: every record and the whole report must be
// bit-identical — sharding only changes which heap holds an event, never
// dispatch order.
func TestChaosShardEquivalence(t *testing.T) {
	rep1, deaths1, adopt1 := chaosScenario(t, 0)
	repN, deathsN, adoptN := chaosScenario(t, AutoShards(topology.Testbed50()))
	if !reflect.DeepEqual(rep1, repN) {
		t.Errorf("reports differ across shard counts:\n1 shard: %+v\nsharded: %+v", rep1, repN)
	}
	if !reflect.DeepEqual(deaths1, deathsN) {
		t.Errorf("death records differ across shard counts")
	}
	if !reflect.DeepEqual(adopt1, adoptN) {
		t.Errorf("adoption records differ across shard counts")
	}
}
