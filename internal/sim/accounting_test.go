package sim

import (
	"math"
	"testing"
)

// TestUnroutableReleaseDropsRecord pins the accounting contract: every
// released packet's record must end Delivered or Dropped. A source with no
// cached uplink route used to append a record and then silently return,
// leaving the record in neither state — invisible to loss ratios.
func TestUnroutableReleaseDropsRecord(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	s, err := New(Config{Tree: tree, Frame: frame(), Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wipe the cached route (white-box): the release path must handle a
	// missing entry as a counted drop, not a silent leak.
	s.endpoint(2).up = nil
	s.release(s.taskState[2].task)

	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Delivered {
		t.Error("unroutable packet marked Delivered")
	}
	if !recs[0].Dropped {
		t.Error("unroutable packet's record not marked Dropped")
	}
	if s.Unroutable != 1 {
		t.Errorf("Unroutable = %d, want 1", s.Unroutable)
	}
}

// TestUnroutableDownlinkDropsRecord covers the sibling path: the downlink
// leg of an echo task whose actuator route is missing must also mark the
// record Dropped when the packet reaches the gateway.
func TestUnroutableDownlinkDropsRecord(t *testing.T) {
	tree, tasks := chainNet(t, 1)
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetSchedule(harpSchedule(t, tree, tasks, f))
	s.endpoint(2).down = nil
	if err := s.RunSlotframes(2); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	if s.Unroutable == 0 {
		t.Fatal("no unroutable drops counted; uplink leg did not complete")
	}
	if !recs[0].Dropped || recs[0].Delivered {
		t.Errorf("first record Dropped=%v Delivered=%v, want Dropped only",
			recs[0].Dropped, recs[0].Delivered)
	}
}

// TestReleaseInstantsDoNotDrift pins exact release slots over a long run for
// a period that is not representable in binary (40/13 slots). Release k must
// fire at slot ceil(k·period) — with period accumulation the rounding error
// compounds and release 13 (instant exactly 40.0) slips to slot 41.
func TestReleaseInstantsDoNotDrift(t *testing.T) {
	const rate = 13.0
	tree, tasks := chainNet(t, rate)
	f := frame()
	s, err := New(Config{Tree: tree, Frame: f, Tasks: tasks, PDR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// No schedule installed: packets pile up and overflow the queue, which
	// is irrelevant here — the record's CreatedAt is stamped at release.
	const slots = 4000
	if err := s.Run(slots); err != nil {
		t.Fatal(err)
	}
	period := float64(f.Slots) / rate
	recs := s.Records()
	want := 0
	for k := 0; ; k++ {
		slot := int(math.Ceil(float64(k) * period))
		if slot >= slots {
			break
		}
		if want >= len(recs) {
			t.Fatalf("only %d releases, expected release %d at slot %d", len(recs), k, slot)
		}
		if recs[want].CreatedAt != slot {
			t.Fatalf("release %d at slot %d, want %d", k, recs[want].CreatedAt, slot)
		}
		want++
	}
	if want != len(recs) {
		t.Fatalf("%d releases, want %d", len(recs), want)
	}
}
