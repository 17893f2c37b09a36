package cosim

import (
	"reflect"
	"testing"

	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
)

// TestSkipEquivalenceAdjustScenario pins the co-simulation contract of the
// event-driven stepper: with the protocol side demanding slots only while an
// adjustment is in flight, the skipping MAC must reproduce the serial run
// exactly — same commits, same packet records, same counters — while
// executing strictly fewer slots. The serial reference registers a no-op
// EachSlot consumer, which makes the stepper execute every slot.
func TestSkipEquivalenceAdjustScenario(t *testing.T) {
	ser := newAdjustScenario(t, 9, 0)
	ser.Sim.EachSlot(func(*sim.Simulator) {})
	if err := ser.RunSlotframes(6); err != nil {
		t.Fatal(err)
	}
	skip := runAdjustScenario(t, 9)
	if got, want := skip.Sim.ExecutedSlots(), ser.Sim.ExecutedSlots(); got >= want {
		t.Errorf("skipping stepper executed %d slots, serial %d — no slots were skipped", got, want)
	}
	if !reflect.DeepEqual(ser.Commits, skip.Commits) {
		t.Errorf("commits diverge:\nserial: %+v\nskip:   %+v", ser.Commits, skip.Commits)
	}
	if !reflect.DeepEqual(ser.Sim.Records(), skip.Sim.Records()) {
		t.Errorf("packet records diverge between serial and skipping co-simulation")
	}
	if !ser.Quiesced() || !skip.Quiesced() {
		t.Errorf("runs did not quiesce: serial %v, skip %v", ser.Quiesced(), skip.Quiesced())
	}
}

// TestShardEquivalenceAdjustScenario pins the sharded virtual-time
// kernel's contract: a co-simulation on N per-subtree event heaps replays
// the single-heap run exactly — same commits, same packet records, same
// executed slots, same delivery counts — because the kernel always pops
// the global (time, seq) minimum across shard heads.
func TestShardEquivalenceAdjustScenario(t *testing.T) {
	serial := runAdjustScenarioShards(t, 9, 0)
	for _, shards := range []int{2, AutoShards(topology.Fig1()), 7} {
		sharded := runAdjustScenarioShards(t, 9, shards)
		if !reflect.DeepEqual(serial.Commits, sharded.Commits) {
			t.Errorf("shards=%d: commits diverge:\nserial:  %+v\nsharded: %+v", shards, serial.Commits, sharded.Commits)
		}
		if !reflect.DeepEqual(serial.Sim.Records(), sharded.Sim.Records()) {
			t.Errorf("shards=%d: packet records diverge from the single-heap run", shards)
		}
		if got, want := sharded.Sim.ExecutedSlots(), serial.Sim.ExecutedSlots(); got != want {
			t.Errorf("shards=%d: executed %d slots, single-heap run executed %d", shards, got, want)
		}
		if got, want := sharded.Bus.Delivered(), serial.Bus.Delivered(); got != want {
			t.Errorf("shards=%d: delivered %d messages, single-heap run delivered %d", shards, got, want)
		}
		if !sharded.Quiesced() {
			t.Errorf("shards=%d: run did not quiesce", shards)
		}
	}
}
