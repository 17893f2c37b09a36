package agent

// Oracle and cost pins for the maintained fleet views. The reference
// functions below are the from-scratch walks Fleet.BuildSchedule,
// PendingAdjustments and Rejections used to be: every agent visited in
// NodeID order under its lock. The oracle drives seeded random fleets
// through every entry point that moves cell assignments, escalation
// stamps or rejections and requires view == reference after every single
// clock event — mid-protocol states included, not just quiescent ones.
// The script is rough on purpose (an infeasible raise stays wedged while the
// topology moves, a leave gets lost), so some fleets end with colliding
// assignments; the oracle's property is view == walk, valid or not.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// referenceSchedule is the old Fleet.BuildSchedule: walk Tree.Nodes(), copy
// each agent's assignment out under its lock, append in that order. shared
// reports that some link was held by more than one agent.
func referenceSchedule(t *testing.T, f *Fleet) (s *schedule.Schedule, shared bool) {
	t.Helper()
	s, err := schedule.NewSchedule(f.Frame)
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[topology.Link]bool)
	for _, id := range f.Tree.Nodes() {
		n := f.node(id)
		for _, d := range topology.Directions() {
			for child, cells := range n.Assignment(d) {
				if len(cells) == 0 {
					continue
				}
				l := topology.Link{Child: child, Direction: d}
				shared = shared || held[l]
				held[l] = true
				if err := s.Assign(l, cells...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s, shared
}

// referencePending is the old Fleet.PendingAdjustments walk.
func referencePending(f *Fleet) int {
	total := 0
	for _, n := range f.nodes {
		if n == nil {
			continue
		}
		for _, d := range topology.Directions() {
			for _, ls := range n.dir(d).layers {
				if ls.stamped {
					total++
				}
			}
		}
	}
	return total
}

// oracleFleet is one seeded deployment under the oracle.
type oracleFleet struct {
	t     *testing.T
	fleet *Fleet
	bus   *transport.Bus
	reg   *obs.Registry
	// checks counts oracle comparisons; sawPending and sawDual record that
	// the interesting states (an in-flight escalation, a link held by two
	// agents at once) were actually compared, not skipped.
	checks     int
	sawPending bool
	sawDual    bool
}

// check compares the three maintained views with their reference walks.
// Rejections are cross-checked against the per-node registry counters the
// same Node.reject call feeds (the per-node field the old walk summed is
// gone; the registry is never reset here).
func (o *oracleFleet) check(when string) {
	o.t.Helper()
	o.checks++
	got, err := o.fleet.BuildSchedule()
	if err != nil {
		o.t.Fatalf("%s: BuildSchedule: %v", when, err)
	}
	want, shared := referenceSchedule(o.t, o.fleet)
	o.sawDual = o.sawDual || shared
	if !reflect.DeepEqual(got, want) {
		o.t.Fatalf("%s: maintained schedule differs from the reference walk\n got %v\nwant %v",
			when, got.Transmissions(), want.Transmissions())
	}
	pending := referencePending(o.fleet)
	if got := o.fleet.PendingAdjustments(); got != pending {
		o.t.Fatalf("%s: PendingAdjustments = %d, reference walk = %d", when, got, pending)
	}
	if pending > 0 {
		o.sawPending = true
	}
	sum := 0
	for _, c := range o.reg.Snapshot().Counters {
		if c.Key.Kind == obs.MetricRejections {
			sum += int(c.Value)
		}
	}
	if got := o.fleet.Rejections(); got != sum {
		o.t.Fatalf("%s: Rejections = %d, registry sum = %d", when, got, sum)
	}
}

// drain runs the bus to quiescence one clock event at a time, comparing
// after each.
func (o *oracleFleet) drain(when string) {
	o.t.Helper()
	o.check(when + " (issued)")
	for o.bus.Clock().Step() {
		o.check(when + " (mid-protocol)")
	}
	if err := o.bus.Err(); err != nil {
		o.t.Fatalf("%s: %v", when, err)
	}
	if o.bus.Pending() != 0 {
		o.t.Fatalf("%s: %d messages still in flight", when, o.bus.Pending())
	}
}

func TestFleetViewsMatchReferenceWalk(t *testing.T) {
	frame := schedule.Slotframe{Slots: 1200, Channels: 16, DataSlots: 1150, SlotDuration: 10 * time.Millisecond}
	var checks int
	var sawPending, sawDual bool
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 36, Layers: 4, MaxChildren: 4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := traffic.UniformEcho(tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			t.Fatal(err)
		}
		bus, err := transport.NewBus(frame.Slots, seed)
		if err != nil {
			t.Fatal(err)
		}
		bus.EnableReliability(seed)
		fleet, err := Deploy(tree, frame, demand, bus, WithMetrics(bus.Metrics()), WithRootGap(2))
		if err != nil {
			t.Fatal(err)
		}
		fleet.BindVirtualTime(bus.Now) // stamp escalations, so pending is exercised
		o := &oracleFleet{t: t, fleet: fleet, bus: bus, reg: bus.Metrics()}
		fleet.Start()
		o.drain("static phase")

		nonGateway := tree.Nodes()[1:]
		pick := func() topology.NodeID { return nonGateway[rng.Intn(len(nonGateway))] }

		// reparent moves a random subtree somewhere legal. With leaveLost the
		// link to the old parent is down while it happens, so the leave never
		// arrives and the old and the new parent both keep cells for the
		// moved link — the one state in which BuildSchedule's NodeID-order
		// merge shows.
		reparent := func(leaveLost bool) {
			for tries := 0; tries < 50; tries++ {
				node, np := pick(), tree.Nodes()[rng.Intn(tree.Len())]
				if tree.Clone().Reparent(node, np) != nil {
					continue
				}
				cur, _ := tree.Parent(node)
				if cur == np {
					continue
				}
				if leaveLost {
					bus.SetLinkDown(node, cur)
				}
				demand = reparentedDemand(t, tree, node, np)
				if err := fleet.Reparent(node, np, demand); err != nil {
					t.Fatal(err)
				}
				o.drain("reparent")
				bus.SetLinkUp(node, cur)
				return
			}
		}

		// Raises and releases through the child end, then the parent end.
		for k := 0; k < 3; k++ {
			l := topology.Link{Child: pick(), Direction: topology.Directions()[rng.Intn(2)]}
			base := demand.Cells(l)
			if err := fleet.RequestLinkDemand(l, base+1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			o.drain("request raise")
			if err := fleet.RequestLinkDemand(l, base); err != nil {
				t.Fatal(err)
			}
			o.drain("request release")
			l = topology.Link{Child: pick(), Direction: topology.Downlink}
			if err := fleet.SetLinkDemand(l, demand.Cells(l)+2, 1); err != nil {
				t.Fatal(err)
			}
			o.drain("set raise")
			if err := fleet.SetLinkDemand(l, demand.Cells(l), 1); err != nil {
				t.Fatal(err)
			}
			o.drain("set release")
		}
		// An infeasible raise: rejected somewhere up the chain.
		big := topology.Link{Child: pick(), Direction: topology.Uplink}
		if err := fleet.RequestLinkDemand(big, frame.DataSlots+1); err != nil {
			t.Fatal(err)
		}
		o.drain("infeasible raise")
		if fleet.Rejections() == 0 {
			t.Fatalf("seed %d: infeasible raise was not rejected", seed)
		}
		if err := fleet.RequestLinkDemand(big, demand.Cells(big)); err != nil {
			t.Fatal(err)
		}
		o.drain("infeasible raise withdrawn")

		reparent(false)

		// Crash a relay; a request below it dies with a give-up and unwinds.
		var victim topology.NodeID
		for _, id := range nonGateway {
			if !tree.IsLeaf(id) {
				victim = id
				break
			}
		}
		bus.Crash(victim)
		orphans := tree.Children(victim)
		l := topology.Link{Child: orphans[0], Direction: topology.Uplink}
		if err := fleet.RequestLinkDemand(l, demand.Cells(l)+4); err != nil {
			t.Fatal(err)
		}
		rejected := fleet.Rejections()
		o.drain("request into a crashed parent")
		if fleet.Rejections() == rejected {
			t.Fatalf("seed %d: the request into crashed node %d did not degrade into a rejection", seed, victim)
		}
		// The orphans are adopted by the dead relay's parent, then it reboots.
		grand, err := tree.Parent(victim)
		if err != nil {
			t.Fatal(err)
		}
		dead := func(id topology.NodeID) bool { return id == victim }
		for _, orphan := range orphans {
			demand = reparentedDemand(t, tree, orphan, grand)
			if err := fleet.Adopt(orphan, grand, demand, dead); err != nil {
				t.Fatal(err)
			}
			o.drain("adopt")
		}
		bus.Restart(victim)
		if err := fleet.RestartNode(victim, demand); err != nil {
			t.Fatal(err)
		}
		o.drain("restart")
		// Last, because the stale cells it leaves at the old parent are a
		// genuinely broken fleet nothing should build on.
		reparent(true)
		checks += o.checks
		sawPending = sawPending || o.sawPending
		sawDual = sawDual || o.sawDual
	}
	t.Logf("%d oracle comparisons; pending>0 seen: %t; doubly-held link seen: %t", checks, sawPending, sawDual)
	if !sawPending {
		t.Error("no comparison ever saw a pending adjustment: the tally is untested")
	}
	if !sawDual {
		t.Error("no comparison ever saw a link held by two agents: the NodeID-order merge is untested")
	}
}

// backboneFleet deploys a GenerateScale fleet of the given size whose whole
// demand sits on the generator's backbone chain gateway→1→…→8 — 32 echo
// tasks, four per backbone node — so fleets of any size own the same links
// and only the idle population differs. One raise is committed before it
// returns.
func backboneFleet(t *testing.T, nodes int) *Fleet {
	t.Helper()
	const layers = 8
	tree, err := topology.GenerateScale(topology.GenSpec{Nodes: nodes, Layers: layers, MaxChildren: 8},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	frame := schedule.Testbed()
	frame.Slots, frame.DataSlots = 997, 960
	tasks := traffic.NewSet()
	for k := 0; k < 32; k++ {
		src := topology.NodeID(1 + k%layers)
		if err := tasks.Add(traffic.Task{ID: traffic.TaskID(k), Source: src, Actuator: src, Rate: 1}); err != nil {
			t.Fatal(err)
		}
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Deploy(tree, frame, demand, bus, WithRootGap(2))
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	l := topology.Link{Child: layers, Direction: topology.Uplink}
	if err := fleet.RequestLinkDemand(l, demand.Cells(l)+1); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		t.Fatal(err)
	}
	if fleet.Rejections() != 0 {
		t.Fatalf("%d-node fleet rejected the raise", nodes)
	}
	return fleet
}

// TestBuildScheduleCostFollowsLinksNotFleet pins the O(changed) property:
// with the same demand, one BuildSchedule allocates exactly as much on a
// 20 000-node fleet as on a 2 000-node one. A builder that visits every
// agent allocates per node and fails this at once.
func TestBuildScheduleCostFollowsLinksNotFleet(t *testing.T) {
	var allocs [2]float64
	var links [2]int
	for i, nodes := range []int{2_000, 20_000} {
		fleet := backboneFleet(t, nodes)
		s, err := fleet.BuildSchedule()
		if err != nil {
			t.Fatal(err)
		}
		links[i] = len(s.Links())
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := fleet.BuildSchedule(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nodes: %d links own cells, %.0f allocs per BuildSchedule", nodes, links[i], allocs[i])
	}
	if links[0] != links[1] || links[0] == 0 {
		t.Fatalf("fleets own %d and %d links: the pin needs the same non-empty demand on both", links[0], links[1])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("BuildSchedule allocates %.0f times at 2 000 nodes but %.0f at 20 000: its cost follows the fleet, not the links",
			allocs[0], allocs[1])
	}
}

// TestBuildScheduleReturnsACopy: editing a returned schedule must not leak
// into the fleet's view.
func TestBuildScheduleReturnsACopy(t *testing.T) {
	fleet, _ := deployOnBus(t, topology.Fig1(), 1, testFrame())
	first, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceSchedule(t, fleet)
	if err := first.Assign(topology.Link{Child: 4, Direction: topology.Uplink}, schedule.Cell{Slot: 0, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	second, err := fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Errorf("the next BuildSchedule changed after editing the previous result\n got %v\nwant %v",
			second.Transmissions(), want.Transmissions())
	}
}
