package sim

import (
	"reflect"
	"testing"
	"time"

	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// simCounters snapshots every public accounting counter so two runs can be
// compared with a single struct equality.
type simCounters struct {
	Drops            int
	Collisions       int
	HalfDuplexBlocks int
	ReceiverMisses   int
	LossFailures     int
	Expired          int
	SwapDrops        int
	Unroutable       int
}

func snapshotCounters(s *Simulator) simCounters {
	return simCounters{
		Drops:            s.Drops,
		Collisions:       s.Collisions,
		HalfDuplexBlocks: s.HalfDuplexBlocks,
		ReceiverMisses:   s.ReceiverMisses,
		LossFailures:     s.LossFailures,
		Expired:          s.Expired,
		SwapDrops:        s.SwapDrops,
		Unroutable:       s.Unroutable,
	}
}

// requireEquivalent runs a scenario with and without slot skipping and
// requires byte-identical packet records and counters, with the skipping
// stepper provably executing fewer slots (otherwise the test degenerates
// into comparing a run against itself). The serial reference registers a
// no-op EachSlot consumer, which makes the stepper execute every slot.
func requireEquivalent(t *testing.T, run func(t *testing.T, serial bool) *Simulator) {
	t.Helper()
	serial := run(t, true)
	skip := run(t, false)
	if got, want := skip.ExecutedSlots(), serial.ExecutedSlots(); got >= want {
		t.Errorf("skipping stepper executed %d slots, serial %d — no slots were skipped", got, want)
	}
	if !reflect.DeepEqual(serial.Records(), skip.Records()) {
		t.Errorf("packet records diverge between serial and skipping stepping:\nserial: %+v\nskip:   %+v",
			serial.Records(), skip.Records())
	}
	if cs, ck := snapshotCounters(serial), snapshotCounters(skip); cs != ck {
		t.Errorf("counters diverge: serial %+v, skip %+v", cs, ck)
	}
	if serial.Now() != skip.Now() || serial.PendingPackets() != skip.PendingPackets() {
		t.Errorf("end state diverges: serial (now=%d pending=%d), skip (now=%d pending=%d)",
			serial.Now(), serial.PendingPackets(), skip.Now(), skip.PendingPackets())
	}
}

// TestSkipEquivalenceChainLossy drives the 3-node chain through the event
// surface that interacts with skipping: a lossy channel with bounded retries,
// a rate change and a schedule swap injected through At, and Run chunks that
// end at odd offsets inside the slotframe.
func TestSkipEquivalenceChainLossy(t *testing.T) {
	requireEquivalent(t, func(t *testing.T, serial bool) *Simulator {
		tree, tasks := chainNet(t, 1.3)
		f := frame()
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.8, MaxRetries: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if serial {
			s.EachSlot(func(*Simulator) {})
		}
		s.SetSchedule(harpSchedule(t, tree, tasks, f))
		// The swap target comes from an independent build at the post-change
		// rate, as the adjustment pipeline would produce.
		tree2, tasks2 := chainNet(t, 2.6)
		swap := harpSchedule(t, tree2, tasks2, f)
		s.At(97, func(sm *Simulator) {
			if err := sm.SetTaskRate(2, 2.6); err != nil {
				t.Fatal(err)
			}
		})
		s.At(201, func(sm *Simulator) { sm.SetSchedule(swap) })
		for _, n := range []int{37, 1, 250, 512} {
			if err := s.Run(n); err != nil {
				t.Fatal(err)
			}
		}
		return s
	})
}

// TestSkipEquivalenceTestbedIdle covers the idle-heavy regime the skipping
// stepper exists for: the 50-node testbed at a low rate, where most slots
// carry no traffic and the activity index does the work.
func TestSkipEquivalenceTestbedIdle(t *testing.T) {
	requireEquivalent(t, func(t *testing.T, serial bool) *Simulator {
		tree := topology.Testbed50()
		tasks, err := traffic.UniformEcho(tree, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		f := schedule.Slotframe{Slots: 400, Channels: 16, DataSlots: 360, SlotDuration: 10 * time.Millisecond}
		s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 0.97, MaxRetries: 3, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if serial {
			s.EachSlot(func(*Simulator) {})
		}
		s.SetSchedule(harpSchedule(t, tree, tasks, f))
		if err := s.RunSlotframes(6); err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestIdleSkipRunDoesNotAllocate pins the hot property the event-driven
// stepper's speedup rests on: once traffic has drained, advancing across idle
// gaps costs zero heap allocations per Run call.
func TestIdleSkipRunDoesNotAllocate(t *testing.T) {
	tree, tasks := chainNet(t, 0.002) // one release, then ~20000 idle slots
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchedule(harpSchedule(t, tree, tasks, f))
	if err := s.Run(10 * f.Slots); err != nil { // absorb the initial release
		t.Fatal(err)
	}
	if got := s.PendingPackets(); got != 0 {
		t.Fatalf("PendingPackets = %d after drain window, want 0", got)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle-skip Run allocated %.1f times per call, want 0", allocs)
	}
}
