package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/schedulers"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

func frame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 40, Channels: 4, DataSlots: 32, SlotDuration: 10 * time.Millisecond}
}

// chainNet builds 0 <- 1 <- 2 with a single echo task at node 2.
func chainNet(t *testing.T, rate float64) (*topology.Tree, *traffic.Set) {
	t.Helper()
	tree := topology.New()
	if err := tree.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddNode(2, 1); err != nil {
		t.Fatal(err)
	}
	tasks := traffic.NewSet()
	if err := tasks.Add(traffic.Task{ID: 2, Source: 2, Actuator: 2, Rate: rate}); err != nil {
		t.Fatal(err)
	}
	return tree, tasks
}

func harpSchedule(t *testing.T, tree *topology.Tree, tasks *traffic.Set, f schedule.Slotframe) *schedule.Schedule {
	t.Helper()
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(tree, f, demand, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := plan.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	if _, err := New(Config{Tree: nil, Frame: frame(), Tasks: tasks, PDR: 1}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := New(Config{Tree: tree, Frame: schedule.Slotframe{}, Tasks: tasks, PDR: 1}); err == nil {
		t.Error("invalid frame accepted")
	}
	if _, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 0}); err == nil {
		t.Error("zero PDR accepted")
	}
	if _, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 1.5}); err == nil {
		t.Error("PDR > 1 accepted")
	}
	if _, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 1, MaxQueue: -1}); err == nil {
		t.Error("negative queue accepted")
	}
	bad := traffic.NewSet()
	if err := bad.Add(traffic.Task{ID: 1, Source: 99, Actuator: 99, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Tree: tree, Frame: frame(), Tasks: bad, PDR: 1}); err == nil {
		t.Error("invalid tasks accepted")
	}
}

func TestEchoDeliveryIdealChannel(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := sim.RunSlotframes(10); err != nil {
		t.Fatal(err)
	}
	recs := sim.Records()
	if len(recs) < 9 {
		t.Fatalf("only %d packets generated", len(recs))
	}
	delivered := 0
	for _, r := range recs {
		if r.Delivered {
			delivered++
			if r.Hops != 4 {
				t.Errorf("echo packet hops = %d, want 4 (2 up + 2 down)", r.Hops)
			}
			if r.Latency() <= 0 || r.Latency() > 2*f.Slots {
				t.Errorf("latency %d slots outside (0, 2 slotframes]", r.Latency())
			}
		}
	}
	if delivered < 8 {
		t.Errorf("delivered %d of %d", delivered, len(recs))
	}
	if sim.Collisions != 0 || sim.LossFailures != 0 {
		t.Errorf("ideal channel had failures: %d collisions %d losses", sim.Collisions, sim.LossFailures)
	}
}

func TestLatencyBoundedByOneSlotframeUnderHARP(t *testing.T) {
	// Fig. 9's headline: with dedicated compliant partitions, e2e latency is
	// (almost) bounded by one slotframe.
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := sim.RunSlotframes(20); err != nil {
		t.Fatal(err)
	}
	lat := sim.LatenciesByTask()
	if len(lat) != 49 {
		t.Fatalf("tasks with deliveries = %d, want 49", len(lat))
	}
	for id, ls := range lat {
		for _, l := range ls {
			if l > float64(2*f.Slots) {
				t.Errorf("task %d latency %v slots exceeds 2 slotframes", id, l)
			}
		}
	}
	if sim.Collisions != 0 {
		t.Errorf("HARP schedule collided %d times", sim.Collisions)
	}
}

func TestPacketLossCausesRetransmission(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := sim.RunSlotframes(50); err != nil {
		t.Fatal(err)
	}
	if sim.LossFailures == 0 {
		t.Error("no loss at PDR 0.7")
	}
	// Retransmission still delivers most packets, at higher latency.
	recs := sim.Records()
	delivered := 0
	for _, r := range recs {
		if r.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered under loss")
	}
}

func TestCollisionsWithConflictingSchedule(t *testing.T) {
	// Two sibling links given the same cell must collide and make no
	// progress on that cell.
	tree := topology.New()
	if err := tree.AddNode(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tree.AddNode(2, 0); err != nil {
		t.Fatal(err)
	}
	tasks := traffic.NewSet()
	for _, id := range []topology.NodeID{1, 2} {
		if err := tasks.Add(traffic.Task{ID: traffic.TaskID(id), Source: id, Actuator: id, Rate: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f := frame()
	s, err := schedule.NewSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	shared := schedule.Cell{Slot: 5, Channel: 0}
	if err := s.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, shared); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(topology.Link{Child: 2, Direction: topology.Uplink}, shared); err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(s)
	if err := sim.RunSlotframes(3); err != nil {
		t.Fatal(err)
	}
	if sim.Collisions == 0 {
		t.Error("conflicting schedule produced no collisions")
	}
	for _, r := range sim.Records() {
		if r.Delivered {
			t.Error("packet delivered over a permanently colliding cell")
		}
	}
}

func TestHalfDuplexArbitration(t *testing.T) {
	// Node 1 scheduled to send (uplink 1->0) and receive (uplink 2->1) in
	// the same slot on different channels: one must be deferred.
	tree, tasks := chainNet(t, 1)
	f := frame()
	s, err := schedule.NewSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(topology.Link{Child: 2, Direction: topology.Uplink}, schedule.Cell{Slot: 5, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, schedule.Cell{Slot: 5, Channel: 1}); err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(s)
	if err := sim.RunSlotframes(4); err != nil {
		t.Fatal(err)
	}
	if sim.HalfDuplexBlocks == 0 {
		t.Error("no half-duplex deferrals recorded")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	tree, tasks := chainNet(t, 8) // heavy load
	f := frame()
	// Empty schedule: everything queues, tiny queue overflows.
	s, err := schedule.NewSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 6, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(s)
	if err := sim.RunSlotframes(3); err != nil {
		t.Fatal(err)
	}
	if sim.Drops == 0 {
		t.Error("no drops with queue cap 2 under rate 8")
	}
	if sim.QueueDepth(topology.Link{Child: 2, Direction: topology.Uplink}) != 2 {
		t.Errorf("queue depth = %d, want cap 2", sim.QueueDepth(topology.Link{Child: 2, Direction: topology.Uplink}))
	}
	if sim.PendingPackets() == 0 {
		t.Error("pending packets should be nonzero")
	}
}

func TestRateChangeIncreasesGeneration(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := sim.RunSlotframes(5); err != nil {
		t.Fatal(err)
	}
	before := len(sim.Records())
	if err := sim.SetTaskRate(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSlotframes(5); err != nil {
		t.Fatal(err)
	}
	after := len(sim.Records()) - before
	if after < 3*before/2 {
		t.Errorf("generation after rate change = %d (before %d), want clearly more", after, before)
	}
	if err := sim.SetTaskRate(99, 1); err == nil {
		t.Error("unknown task accepted")
	}
	if err := sim.SetTaskRate(2, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

// releaseSlots extracts the CreatedAt instants of every generated packet.
func releaseSlots(s *Simulator) []int {
	var out []int
	for _, r := range s.Records() {
		out = append(out, r.CreatedAt)
	}
	return out
}

func TestRateStepReleasesRederived(t *testing.T) {
	// Fig. 10-style rate step 1 -> 3 pkt/slotframe mid-run. Frame is 40
	// slots, so the old period is 40 and the new one 40/3 ≈ 13.3 slots.
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	// Change the rate at slot 50: the last release was at slot 40, so the
	// next must come one NEW period later (slot ceil(40+13.3) within slot
	// 54) — not at slot 80 where the old period had it.
	sim.At(50, func(s *Simulator) {
		if err := s.SetTaskRate(2, 3); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	rel := releaseSlots(sim)
	if len(rel) < 4 {
		t.Fatalf("only %d releases: %v", len(rel), rel)
	}
	if rel[0] != 0 || rel[1] != 40 {
		t.Fatalf("pre-step releases = %v, want slots 0 and 40", rel[:2])
	}
	// First post-step release: 40 + 40/3 lands in slot 54 (generate fires
	// when now >= nextRelease). The old bug kept it at slot 80.
	if rel[2] != 54 {
		t.Errorf("first post-step release at slot %d, want 54 (old-period bug gives 80)", rel[2])
	}
	// Subsequent releases run at the new period (~13.3 slots apart).
	for i := 3; i < len(rel); i++ {
		gap := rel[i] - rel[i-1]
		if gap < 13 || gap > 14 {
			t.Errorf("post-step release gap %d slots between %d and %d, want ~13.3",
				gap, rel[i-1], rel[i])
		}
	}
}

func TestRateStepDownDoesNotBurst(t *testing.T) {
	// Slowing a task down must not leave a stale (near) release instant: the
	// next release moves one NEW period after the last one.
	tree, tasks := chainNet(t, 4) // period 10
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	sim.At(25, func(s *Simulator) {
		if err := s.SetTaskRate(2, 1); err != nil { // period 40
			t.Error(err)
		}
	})
	if err := sim.Run(61); err != nil {
		t.Fatal(err)
	}
	rel := releaseSlots(sim)
	// Releases at 0, 10, 20 under rate 4; after the step at slot 25 the
	// last release was 20, so the next comes at 20+40 = 60.
	want := []int{0, 10, 20, 60}
	if len(rel) != len(want) {
		t.Fatalf("releases = %v, want %v", rel, want)
	}
	for i := range want {
		if rel[i] != want[i] {
			t.Fatalf("releases = %v, want %v", rel, want)
		}
	}
}

func TestEventCallbacks(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	fired := -1
	sim.At(17, func(s *Simulator) { fired = s.Now() })
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	if fired != 17 {
		t.Errorf("event fired at %d, want 17", fired)
	}
	if sim.Now() != 30 {
		t.Errorf("Now = %d, want 30", sim.Now())
	}
}

func TestGatewaySourceTask(t *testing.T) {
	// A task sourced at the gateway only has the downlink leg.
	tree, _ := chainNet(t, 1)
	tasks := traffic.NewSet()
	if err := tasks.Add(traffic.Task{ID: 1, Source: 0, Actuator: 2, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := sim.RunSlotframes(5); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sim.Records() {
		if r.Delivered {
			found = true
			if r.Hops != 2 {
				t.Errorf("downlink-only hops = %d, want 2", r.Hops)
			}
		}
	}
	if !found {
		t.Error("gateway-sourced task never delivered")
	}
}

func TestSimPropertyDeliveredLatencyPositive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 8 + rng.Intn(10), Layers: 2}, rng)
		if err != nil {
			return false
		}
		tasks, err := traffic.UniformEcho(tree, 1)
		if err != nil {
			return false
		}
		f := schedule.Slotframe{Slots: 120, Channels: 8, DataSlots: 100, SlotDuration: 10 * time.Millisecond}
		demand, err := traffic.Compute(tree, tasks)
		if err != nil {
			return false
		}
		sched, err := (schedulers.HARP{}).Build(tree, f, demand, rng)
		if err != nil {
			return false
		}
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: seed})
		if err != nil {
			return false
		}
		s.SetSchedule(sched)
		if err := s.RunSlotframes(6); err != nil {
			return false
		}
		sawDelivery := false
		for _, r := range s.Records() {
			if r.Delivered {
				sawDelivery = true
				if r.Latency() <= 0 {
					return false
				}
			}
		}
		return sawDelivery
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSetScheduleHotSwapDrainsUnservedLinks(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := s.RunSlotframes(2); err != nil {
		t.Fatal(err)
	}
	// Strand a packet: queue one on link 2 uplink, then install a schedule
	// that serves only link 1 — link 2's queue can never drain again.
	s.release(s.taskState[2].task)
	if s.QueueDepth(topology.Link{Child: 2, Direction: topology.Uplink}) == 0 {
		t.Fatal("no packet queued on link 2")
	}
	partial, err := schedule.NewSchedule(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Assign(topology.Link{Child: 1, Direction: topology.Uplink}, schedule.Cell{Slot: 0, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	before := s.SwapDrops
	s.SetSchedule(partial)
	if s.SwapDrops <= before {
		t.Errorf("SwapDrops = %d, want > %d: stranded packet not drained", s.SwapDrops, before)
	}
	if s.QueueDepth(topology.Link{Child: 2, Direction: topology.Uplink}) != 0 {
		t.Error("unserved link still holds packets after hot swap")
	}
	// Links the new schedule still serves keep their queues.
	if err := s.RunSlotframes(1); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnSharedClockInterleaves(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchedule(harpSchedule(t, tree, tasks, f))
	c := vclock.New()
	if err := s.BindClock(c); err != nil {
		t.Fatal(err)
	}
	if err := s.BindClock(nil); err == nil {
		t.Error("BindClock(nil) accepted")
	}
	// A foreign event mid-window (a transport delivery in co-simulation)
	// must run between the right slot ticks.
	var slotAtEvent int
	c.ScheduleIn(0, 10.5, func() { slotAtEvent = s.Now() })
	if err := s.Run(2 * f.Slots); err != nil {
		t.Fatal(err)
	}
	// Slot 10's tick runs at time 10 and advances Now to 11; the event at
	// 10.5 then observes Now == 11.
	if slotAtEvent != 11 {
		t.Errorf("foreign event at t=10.5 saw slot %d, want 11", slotAtEvent)
	}
	if s.Now() != 2*f.Slots {
		t.Errorf("Now = %d, want %d", s.Now(), 2*f.Slots)
	}
	if c.Now() != float64(2*f.Slots) {
		t.Errorf("clock Now = %v, want %v", c.Now(), float64(2*f.Slots))
	}
	// EachSlot fires once per slot.
	ticks := 0
	s.EachSlot(func(*Simulator) { ticks++ })
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("EachSlot ran %d times over 5 slots", ticks)
	}
}

// TestSteadyStateStepAllocFree pins the //harplint:hotpath contract on the
// slot loop: once routes are cached, the packet pool is warm, and the
// records slice has grown its capacity, simulating a slot allocates
// nothing.
func TestSteadyStateStepAllocFree(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	sim, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetSchedule(harpSchedule(t, tree, tasks, f))
	// Warm up: fill the packet pool and grow records past the measurement
	// window's needs (append doubling leaves ample headroom).
	if err := sim.RunSlotframes(200); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sim.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state step allocates %.2f times per slot, want 0", allocs)
	}
}

// An At for a slot the stepper has passed runs at the next executed slot,
// and the stale slot does not leave the cursor scanning: the next event
// still fires on time and idle slots are still skipped.
func TestAtPastSlotRunsAtNextExecutedSlot(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	sim, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	var fired []int
	sim.At(3, func(s *Simulator) { fired = append(fired, s.Now()) })
	sim.At(14, func(s *Simulator) { fired = append(fired, s.Now()) })
	executed := sim.ExecutedSlots()
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 14}; !reflect.DeepEqual(fired, want) {
		t.Errorf("callbacks fired at %v, want %v", fired, want)
	}
	if n := sim.ExecutedSlots() - executed; n != 2 {
		t.Errorf("executed %d slots of an idle run with two callbacks, want 2", n)
	}
}

// An At for the current slot, registered from that slot's own callbacks,
// runs at the next executed slot instead of being dropped.
func TestAtCurrentSlotFromCallbackRunsNextSlot(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	sim, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	sim.At(5, func(s *Simulator) {
		fired = append(fired, s.Now())
		s.At(s.Now(), func(s *Simulator) { fired = append(fired, s.Now()) })
	})
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 6}; !reflect.DeepEqual(fired, want) {
		t.Errorf("callbacks fired at %v, want %v", fired, want)
	}
}
