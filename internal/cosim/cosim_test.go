package cosim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func testFrame() schedule.Slotframe {
	return schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
}

func newFig1CoSim(t *testing.T, seed int64) *CoSim {
	t.Helper()
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(Config{
		Tree:  tree,
		Frame: testFrame(),
		Tasks: tasks,
		PDR:   1,
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestStaticPhaseAndDataPlane(t *testing.T) {
	cs := newFig1CoSim(t, 1)
	// The static phase consumed virtual time before slot 0 of the MAC.
	if cs.Clock.Now() <= 0 {
		t.Error("static phase consumed no virtual time")
	}
	if cs.Sim.Now() != 0 {
		t.Errorf("MAC started at slot %d, want 0", cs.Sim.Now())
	}
	if err := cs.RunSlotframes(2); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, r := range cs.Sim.Records() {
		if r.Delivered {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no packets delivered over the fleet-built schedule")
	}
	if len(cs.Commits) != 0 {
		t.Errorf("commits without any adjustment: %+v", cs.Commits)
	}
}

// runAdjustScenario triples link 8's demand mid-run and returns the harness
// after the protocol has committed.
func runAdjustScenario(t *testing.T, seed int64) *CoSim {
	t.Helper()
	return runAdjustScenarioShards(t, seed, 0)
}

// runAdjustScenarioShards is runAdjustScenario on a sharded virtual-time
// kernel (0 = single heap).
func runAdjustScenarioShards(t *testing.T, seed int64, shards int) *CoSim {
	t.Helper()
	cs := newAdjustScenario(t, seed, shards)
	if err := cs.RunSlotframes(6); err != nil {
		t.Fatal(err)
	}
	return cs
}

// newAdjustScenario builds the scenario with its trigger scheduled, not yet
// run.
func newAdjustScenario(t *testing.T, seed int64, shards int) *CoSim {
	t.Helper()
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(Config{
		Tree:   tree,
		Frame:  testFrame(),
		Tasks:  tasks,
		PDR:    1,
		Seed:   seed,
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame()
	trigger := frame.Slots + 7
	link := topology.Link{Child: 8, Direction: topology.Uplink}
	cs.At(trigger, func(c *CoSim) {
		if err := c.Adjust(func(f *agent.Fleet) error {
			return f.RequestLinkDemand(link, 3)
		}); err != nil {
			t.Error(err)
		}
	})
	return cs
}

func TestAdjustCommitsAtQuiescence(t *testing.T) {
	cs := runAdjustScenario(t, 1)
	frame := testFrame()
	trigger := frame.Slots + 7
	if !cs.Quiesced() {
		t.Fatal("adjustment never quiesced")
	}
	if len(cs.Commits) != 1 {
		t.Fatalf("commits = %d, want 1", len(cs.Commits))
	}
	c := cs.Commits[0]
	if c.TriggerSlot != trigger {
		t.Errorf("TriggerSlot = %d, want %d", c.TriggerSlot, trigger)
	}
	if c.CommitSlot <= c.TriggerSlot {
		t.Errorf("CommitSlot %d not after trigger %d: no disruption window", c.CommitSlot, c.TriggerSlot)
	}
	// Tripling a leaf link overflows its parent's exactly-sized partition:
	// the request escalates, so the exchange costs real messages.
	if c.Messages == 0 || c.Requests == 0 {
		t.Errorf("escalated adjustment recorded no protocol messages: %+v", c)
	}
	if c.ScheduleMessages == 0 {
		t.Errorf("no schedule notifications in exchange: %+v", c)
	}
	if c.DisruptionSec(frame) <= 0 {
		t.Errorf("DisruptionSec = %v, want > 0", c.DisruptionSec(frame))
	}
	if sf := c.Slotframes(frame); sf < 1 || sf > 6 {
		t.Errorf("disruption = %d slotframes, want within the run", sf)
	}
	// The committed schedule serves the tripled demand: link 8 now holds at
	// least 3 uplink cells in the fleet's schedule, and the MAC keeps
	// delivering over it.
	sched, err := cs.Fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sched.Cells(topology.Link{Child: 8, Direction: topology.Uplink})); got < 3 {
		t.Errorf("link 8 uplink cells after commit = %d, want >= 3", got)
	}
	delivered := 0
	for _, r := range cs.Sim.Records() {
		if r.Delivered && r.CreatedAt > c.CommitSlot {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no deliveries after the hot swap")
	}
}

func TestAdjustRejectsOverlap(t *testing.T) {
	cs := newFig1CoSim(t, 1)
	link := topology.Link{Child: 8, Direction: topology.Uplink}
	if err := cs.Adjust(func(f *agent.Fleet) error {
		return f.RequestLinkDemand(link, 3)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cs.Adjust(func(f *agent.Fleet) error { return nil }); err == nil {
		t.Error("overlapping Adjust accepted")
	}
}

func TestCoSimDeterministic(t *testing.T) {
	a := runAdjustScenario(t, 42)
	b := runAdjustScenario(t, 42)
	if !reflect.DeepEqual(a.Commits, b.Commits) {
		t.Errorf("same-seed commits differ:\n%+v\n%+v", a.Commits, b.Commits)
	}
	if !reflect.DeepEqual(a.Sim.Records(), b.Sim.Records()) {
		t.Error("same-seed packet traces differ")
	}
	if a.Clock.Now() != b.Clock.Now() {
		t.Errorf("same-seed end times differ: %v vs %v", a.Clock.Now(), b.Clock.Now())
	}
	c := runAdjustScenario(t, 43)
	if reflect.DeepEqual(a.Sim.Records(), c.Sim.Records()) && a.Clock.Now() == c.Clock.Now() {
		t.Error("different seeds produced identical runs: seed is not wired through")
	}
}

// TestCommitInstallsTheValidatedSchedule pins the commit path on the
// Testbed50 node-15 raise: the schedule observe() validates and the one it
// hands to the MAC are the same single build. The MAC exposes no schedule
// accessor, so "the schedule the MAC runs" is read off its behaviour: the
// hot-swap trace event must count exactly the cells of a fresh
// Fleet.BuildSchedule(), and a reference MAC that is handed that fresh
// schedule at the commit slot must produce identical packet records.
func TestCommitInstallsTheValidatedSchedule(t *testing.T) {
	tree := topology.Testbed50()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := testFrame()
	cs, err := New(Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: 1, Seed: 3, RootGap: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	static, err := cs.Fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	const slotframes = 12
	trigger := 2*frame.Slots + 5
	link := topology.Link{Child: 15, Direction: topology.Uplink}
	target := len(static.Cells(link)) + 2
	// The rate steps with the demand, so the raised cells carry packets.
	raise := func(s *sim.Simulator) {
		if err := s.SetTaskRate(15, 3); err != nil {
			t.Error(err)
		}
	}
	cs.At(trigger, func(c *CoSim) {
		raise(c.Sim)
		if err := c.Adjust(func(f *agent.Fleet) error {
			return f.RequestLinkDemand(link, target)
		}); err != nil {
			t.Error(err)
		}
	})
	if err := cs.RunSlotframes(slotframes); err != nil {
		t.Fatal(err)
	}
	if len(cs.Commits) != 1 {
		t.Fatalf("commits = %d, want 1", len(cs.Commits))
	}
	commit := cs.Commits[0].CommitSlot

	fresh, err := cs.Fleet.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Validate(tree); err != nil {
		t.Fatalf("committed schedule invalid: %v", err)
	}
	if got := len(fresh.Cells(link)); got < target {
		t.Errorf("link 15 uplink cells after commit = %d, want >= %d", got, target)
	}
	if reflect.DeepEqual(static.Transmissions(), fresh.Transmissions()) {
		t.Fatal("the raise left the schedule unchanged: the scenario pins nothing")
	}

	swapped := -1
	for _, ev := range cs.Tracer.Events() {
		if ev.Kind == obs.KindMacSwap && ev.Slot == commit {
			var stranded int
			if _, err := fmt.Sscanf(ev.Detail, "cells=%d stranded=%d", &swapped, &stranded); err != nil {
				t.Fatalf("mac.swap detail %q: %v", ev.Detail, err)
			}
		}
	}
	if want := len(fresh.Transmissions()); swapped != want {
		t.Errorf("MAC swapped in %d cells at commit slot %d, fresh BuildSchedule has %d", swapped, commit, want)
	}

	ref, err := sim.New(sim.Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetSchedule(static)
	ref.At(trigger, raise)
	ref.At(commit, func(s *sim.Simulator) { s.SetSchedule(fresh) })
	if err := ref.RunSlotframes(slotframes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Records(), cs.Sim.Records()) {
		t.Error("packet records diverge from a reference MAC running the fresh BuildSchedule from the commit slot")
	}
}
