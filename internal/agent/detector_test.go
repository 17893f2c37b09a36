package agent

import (
	"math/rand"
	"testing"

	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// deployWithDetector stands up a fleet on a bus (static phase drained,
// virtual time bound, counters in the bus's registry) and a detector over
// it with the default thresholds and no watchdog. The detector is not
// started.
func deployWithDetector(t *testing.T, tree *topology.Tree, frame schedule.Slotframe, demand *traffic.Demand) (*Fleet, *transport.Bus, *Detector) {
	t.Helper()
	bus, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Deploy(tree, frame, demand, bus, WithMetrics(bus.Metrics()))
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	fleet.BindVirtualTime(bus.Clock().Now)
	cfg := DefaultDetectorConfig(frame.Slots)
	cfg.AbortAfter = 0
	cfg.Seed = 1
	cfg.Metrics = bus.Metrics()
	cfg.Demand = func(_, _ topology.NodeID) *traffic.Demand { return demand }
	det, err := NewDetector(fleet, bus, bus.Clock(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, bus, det
}

// TestDetectorStopKeepsVirtualTimeBound: stopping the detector removes its
// delivery hook and nothing else. The clock reading BindVirtualTime bound
// before the detector existed must survive, or escalations go unstamped —
// PendingAdjustments reads zero while an adjustment is in flight and the
// escalation→commit latency is never observed.
func TestDetectorStopKeepsVirtualTimeBound(t *testing.T) {
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	fleet, bus, det := deployWithDetector(t, tree, testFrame(), demand)
	det.Start()
	det.Stop()
	if h := fleet.sh.hooks; h.heard != nil || h.vnow == nil {
		t.Fatalf("after Stop the hooks are %+v, want no delivery hook and the clock still bound", h)
	}

	// Tripling link 8 overflows node 5's exactly-sized partition: the
	// request escalates, and stays pending until the grant commits.
	if err := fleet.RequestLinkDemand(topology.Link{Child: 8, Direction: topology.Uplink}, 3); err != nil {
		t.Fatal(err)
	}
	maxPending := 0
	for bus.Clock().Step() {
		if p := fleet.PendingAdjustments(); p > maxPending {
			maxPending = p
		}
	}
	if err := bus.Err(); err != nil {
		t.Fatal(err)
	}
	if maxPending == 0 {
		t.Error("PendingAdjustments stayed 0 while the escalation was in flight: escalations went unstamped")
	}
	if p := fleet.PendingAdjustments(); p != 0 {
		t.Errorf("PendingAdjustments = %d after the commit, want 0", p)
	}
	if h, ok := bus.Metrics().DistStat(obs.Key(obs.MetricEscCommitMs)); !ok || h.Count != 1 {
		t.Errorf("escalation→commit observations = %d, want 1", h.Count)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorQueriesOutsideItsState: ids the detector holds no state for —
// every id before Start, unknown ids after — are neither dead nor suspect.
func TestDetectorQueriesOutsideItsState(t *testing.T) {
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	_, _, det := deployWithDetector(t, tree, testFrame(), demand)
	for _, id := range []topology.NodeID{0, 5, 99, topology.None} {
		if det.Dead(id) || det.Suspected(id) || det.DeadOrCrashed(id) {
			t.Errorf("before Start node %d is dead/suspect", id)
		}
	}
	det.Start()
	defer det.Stop()
	det.heard(99) // a stray sender must not write anywhere
	for _, id := range []topology.NodeID{99, topology.None} {
		if det.Dead(id) || det.Suspected(id) || det.DeadOrCrashed(id) {
			t.Errorf("unknown node %d is dead/suspect", id)
		}
	}
}

// TestDetectorWalkFollowsRehome: the sweep probes along a cached walk of
// the tree. Re-homing a node is the one thing that changes who probes
// whom, and the next sweep must probe along the new links — the moved node
// and its new parent keep hearing each other and nobody is suspected.
func TestDetectorWalkFollowsRehome(t *testing.T) {
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame()
	fleet, bus, det := deployWithDetector(t, tree, frame, demand)
	det.Start()
	defer det.Stop()
	runFrames := func(n int) {
		t.Helper()
		bus.Clock().RunUntil(bus.Now() + float64(n*frame.Slots))
		if err := bus.Err(); err != nil {
			t.Fatal(err)
		}
	}
	runFrames(3)
	if err := fleet.Reparent(9, 4, reparentedDemand(t, tree, 9, 4)); err != nil {
		t.Fatal(err)
	}
	runFrames(12) // twice DeadAfter: a node nobody probes any more would be declared dead
	if err := det.Err(); err != nil {
		t.Fatal(err)
	}
	if len(det.Deaths) != 0 || bus.Metrics().Counter(obs.Key(obs.MetricSuspects)) != 0 {
		t.Fatalf("healthy fleet after a rehome: deaths %+v, %d suspicions", det.Deaths,
			bus.Metrics().Counter(obs.Key(obs.MetricSuspects)))
	}
	// The walk is the tree's, link for link.
	var fresh probeWalk
	fresh.rebuild(fleet.Tree)
	if det.walkGen != fleet.treeGen || len(det.walk.peers) != len(fresh.peers) {
		t.Fatalf("walk built at generation %d (fleet at %d), %d peers, want %d", det.walkGen, fleet.treeGen,
			len(det.walk.peers), len(fresh.peers))
	}
	for i := range fresh.peers {
		if det.walk.peers[i] != fresh.peers[i] {
			t.Fatalf("cached walk differs from the tree at peer %d", i)
		}
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKeepaliveLedgerZeroAllocs pins what a keepalive costs end to end: on
// a 2 000-node scale-generator fleet with the detector on, a warm slotframe
// of probes — sweep, send, clock, delivery, borrowed parse, agent router,
// liveness hook — allocates at most once per hundred dispatched events
// (what is left is the sweep's own timer: three allocations a period).
func TestKeepaliveLedgerZeroAllocs(t *testing.T) {
	const nodes = 2000
	tree, err := topology.GenerateScale(topology.GenSpec{Nodes: nodes, Layers: 8, MaxChildren: 8},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	frame := schedule.Testbed()
	frame.Slots, frame.DataSlots = 997, 960
	cells := make(map[topology.Link]int)
	for i, c := range tree.Children(topology.GatewayID) {
		if i < 4 {
			cells[topology.Link{Child: c, Direction: topology.Uplink}] = 2
		}
	}
	_, bus, det := deployWithDetector(t, tree, frame, traffic.FromCells(cells))
	det.Start()
	defer det.Stop()
	clock := bus.Clock()
	runFrame := func() { clock.RunUntil(clock.Now() + float64(frame.Slots)) }
	for i := 0; i < 10; i++ {
		runFrame() // peer tables and counter cells warm; the pools as deep as the jittered in-flight peak
	}
	before := clock.Dispatched()
	const frames = 6 // AllocsPerRun's warm-up run plus five measured ones
	allocs := testing.AllocsPerRun(frames-1, runFrame)
	events := float64(clock.Dispatched()-before) / frames
	if err := bus.Err(); err != nil {
		t.Fatal(err)
	}
	if events < 1.5*(nodes-1) { // two probes per tree link per (jittered) period
		t.Fatalf("only %.0f events per slotframe: the detector is not probing", events)
	}
	t.Logf("%.1f allocations per slotframe of %.0f dispatched events", allocs, events)
	if allocs/events > 0.01 {
		t.Errorf("%.4f allocations per dispatched event, want at most 0.01", allocs/events)
	}
	if len(det.Deaths) != 0 || det.Err() != nil {
		t.Errorf("healthy fleet: deaths %+v, err %v", det.Deaths, det.Err())
	}
}
