package vclock

import "testing"

func TestRunOrdersByTime(t *testing.T) {
	c := New()
	var got []int
	c.ScheduleIn(0, 3.5, func() { got = append(got, 3) })
	c.ScheduleIn(0, 1.25, func() { got = append(got, 1) })
	c.ScheduleIn(0, 2.0, func() { got = append(got, 2) })
	end := c.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("run order = %v", got)
	}
	if end != 3.5 || c.Now() != 3.5 {
		t.Errorf("end time = %v, Now = %v, want 3.5", end, c.Now())
	}
}

func TestSameTimeTieBreakBySeq(t *testing.T) {
	c := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.ScheduleIn(0, 7.0, func() { got = append(got, i) })
	}
	c.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of schedule order: %v", got)
		}
	}
}

func TestScheduleFromInsideEvent(t *testing.T) {
	c := New()
	var got []string
	c.ScheduleIn(0, 1, func() {
		got = append(got, "a")
		// Re-entrant schedules: one in the past (clamped to now), one at
		// now (runs after already-queued same-time events), one later.
		c.ScheduleIn(0, 0.5, func() { got = append(got, "clamped") })
		c.ScheduleIn(0, 1, func() { got = append(got, "same") })
		c.ScheduleIn(0, 2, func() { got = append(got, "later") })
	})
	c.ScheduleIn(0, 1, func() { got = append(got, "b") })
	c.Run()
	want := []string{"a", "b", "clamped", "same", "later"}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	if c.Now() != 2 {
		t.Errorf("Now = %v, want 2", c.Now())
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	c := New()
	var got []int
	c.ScheduleIn(0, 1, func() { got = append(got, 1) })
	c.ScheduleIn(0, 5, func() { got = append(got, 5) })
	c.ScheduleIn(0, 10, func() { got = append(got, 10) })
	c.RunUntil(5)
	if len(got) != 2 {
		t.Fatalf("RunUntil(5) ran %v, want the <=5 events", got)
	}
	if c.Now() != 5 {
		t.Errorf("Now = %v, want 5", c.Now())
	}
	if c.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", c.Pending())
	}
	if at, ok := c.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v,%v, want 10,true", at, ok)
	}
	// RunUntil with an earlier time must not rewind the clock.
	c.RunUntil(3)
	if c.Now() != 5 {
		t.Errorf("RunUntil rewound the clock to %v", c.Now())
	}
}

func TestRunUntilRunsEventsScheduledWithinWindow(t *testing.T) {
	c := New()
	var got []float64
	c.ScheduleIn(0, 1, func() {
		got = append(got, 1)
		c.ScheduleIn(0, 2, func() { got = append(got, 2) })
		c.ScheduleIn(0, 4, func() { got = append(got, 4) })
	})
	c.RunUntil(3)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("events = %v, want [1 2]", got)
	}
	if c.Pending() != 1 {
		t.Errorf("Pending = %d, want the t=4 event", c.Pending())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	c := New()
	if c.Step() {
		t.Error("Step on empty queue returned true")
	}
	if end := c.Run(); end != 0 {
		t.Errorf("Run on empty queue returned %v", end)
	}
}

func TestRNGStreamsIndependentAndStable(t *testing.T) {
	a, b := New(), New()
	// Same (name, seed) on two clocks: identical streams.
	r1, r2 := a.RNG("bus", 42), b.RNG("bus", 42)
	for i := 0; i < 100; i++ {
		if r1.Float64() != r2.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	// Same name again returns the same stream, not a reset one.
	if a.RNG("bus", 42) != r1 {
		t.Error("RNG returned a fresh stream for an existing name")
	}
	// A second consumer does not perturb the first.
	c := New()
	s1 := c.RNG("bus", 42)
	first := s1.Float64()
	c.RNG("sim", 7).Float64()
	d := New()
	t1 := d.RNG("bus", 42)
	if got := t1.Float64(); got != first {
		t.Errorf("stream perturbed by an unrelated consumer: %v != %v", got, first)
	}
}

func TestCancelableEvents(t *testing.T) {
	c := New()
	var ran []string
	c.ScheduleIn(0, 1, func() { ran = append(ran, "a") })
	h := c.ScheduleCancelableIn(0, 2, func() { ran = append(ran, "cancelled") })
	c.ScheduleCancelableIn(0, 3, func() { ran = append(ran, "kept") })
	if c.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", c.Pending())
	}
	h.Cancel()
	h.Cancel() // idempotent
	if c.Pending() != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", c.Pending())
	}
	end := c.Run()
	if end != 3 {
		t.Errorf("Run ended at %v, want 3 (cancelled event must not set the end time)", end)
	}
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "kept" {
		t.Errorf("ran = %v", ran)
	}
}

func TestCancelAllLeavesTimeUntouched(t *testing.T) {
	// A queue holding only cancelled events is quiescent: Run must not
	// advance Now to the stale timers' times.
	c := New()
	h1 := c.ScheduleCancelableIn(0, 100, func() { t.Error("cancelled event ran") })
	h2 := c.ScheduleCancelableIn(0, 200, func() { t.Error("cancelled event ran") })
	h1.Cancel()
	h2.Cancel()
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", c.Pending())
	}
	if _, ok := c.NextAt(); ok {
		t.Error("NextAt reported a cancelled event")
	}
	if end := c.Run(); end != 0 {
		t.Errorf("Run advanced to %v over cancelled events", end)
	}
	// RunUntil skips cancelled events and still advances the boundary.
	c2 := New()
	h := c2.ScheduleCancelableIn(0, 5, func() { t.Error("cancelled event ran") })
	h.Cancel()
	c2.RunUntil(10)
	if c2.Now() != 10 {
		t.Errorf("Now = %v, want 10", c2.Now())
	}
}

// record is a replayable trace of one clock's dispatch history.
type record struct {
	at  float64
	tag int
}

// driveShardedScenario exercises scheduling from inside events, same-time
// ties, cancellations and the arg-passing path on a clock with n shards,
// routing each event to a shard derived from its tag. The dispatch trace
// must be identical for every n.
func driveShardedScenario(n int) []record {
	c := New()
	c.SetShards(n)
	route := func(tag int) int { return tag % n }
	var got []record
	obs := func(tag int) func() {
		return func() { got = append(got, record{at: c.Now(), tag: tag}) }
	}
	argObs := func(x any) { got = append(got, record{at: c.Now(), tag: x.(int)}) }
	for tag := 0; tag < 24; tag++ {
		c.ScheduleIn(route(tag), float64(tag%7)+0.25, obs(tag))
	}
	// Same-time burst across shards: seq must serialise them globally.
	for tag := 100; tag < 112; tag++ {
		c.ScheduleArgIn(route(tag), 3.0, argObs, tag)
	}
	// Cancel a few spread across shards.
	var hs []*Handle
	for tag := 200; tag < 208; tag++ {
		hs = append(hs, c.ScheduleCancelableIn(route(tag), 5.5, obs(tag)))
	}
	for i, h := range hs {
		if i%2 == 0 {
			h.Cancel()
		}
	}
	// Events scheduling further events, hopping shards.
	c.ScheduleIn(route(1), 1.0, func() {
		c.ScheduleIn(route(2), 1.0, obs(300)) // same time as Now: runs after queued 1.0 ties
		c.ScheduleIn(route(3), 9.0, obs(301))
	})
	c.Run()
	return got
}

func TestShardedDispatchMatchesSerial(t *testing.T) {
	want := driveShardedScenario(1)
	for _, n := range []int{2, 3, 5, 8} {
		got := driveShardedScenario(n)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d dispatches, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: dispatch %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestSetShardsGuards(t *testing.T) {
	c := New()
	if c.NumShards() != 1 {
		t.Fatalf("fresh clock shards = %d, want 1", c.NumShards())
	}
	c.SetShards(0)
	if c.NumShards() != 1 {
		t.Fatalf("SetShards(0) gave %d shards, want clamp to 1", c.NumShards())
	}
	c.SetShards(4)
	if c.NumShards() != 4 {
		t.Fatalf("shards = %d, want 4", c.NumShards())
	}
	c.ScheduleIn(0, 1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("SetShards with queued events must panic")
		}
	}()
	c.SetShards(2)
}

func TestShardIndexClamped(t *testing.T) {
	c := New()
	c.SetShards(2)
	var got []int
	c.ScheduleIn(-3, 1, func() { got = append(got, 1) })
	c.ScheduleIn(99, 2, func() { got = append(got, 2) })
	c.ScheduleCancelableIn(7, 3, func() { got = append(got, 3) })
	c.Run()
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3 (out-of-range shards fold to 0)", len(got))
	}
}

func TestDispatchedCounter(t *testing.T) {
	c := New()
	c.SetShards(2)
	h := c.ScheduleCancelableIn(1, 1, func() {})
	h.Cancel()
	c.ScheduleIn(0, 2, func() {})
	c.ScheduleArgIn(1, 3, func(any) {}, nil)
	c.Run()
	if c.Dispatched() != 2 {
		t.Fatalf("Dispatched = %d, want 2 (cancelled events don't count)", c.Dispatched())
	}
}

func TestScheduleArgInReusesPool(t *testing.T) {
	c := New()
	fn := func(any) {}
	// Warm the pool, then steady-state schedule/step cycles must not allocate.
	c.ScheduleArgIn(0, 1, fn, 7)
	c.Step()
	allocs := testing.AllocsPerRun(100, func() {
		c.ScheduleArgIn(0, c.Now()+1, fn, 7)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleArgIn/Step allocates %.1f per cycle, want 0", allocs)
	}
}

// TestHeapPopsInKeyOrderUnderTiesAndCancels: 10^5 events at a handful of
// distinct times (heavy ties), a third of them cancelable and a random
// half of those cancelled, spread over 1, 3 and 9 shards. The survivors
// must run in ascending (time, schedule order) — the order the inline
// (at, seq) heap keys define — and identically at every shard count.
func TestHeapPopsInKeyOrderUnderTiesAndCancels(t *testing.T) {
	const events = 100_000
	type ran struct {
		at float64
		n  int // schedule order
	}
	run := func(shards int) []ran {
		c := New()
		c.SetShards(shards)
		rng := NewStream(StreamSweep, 42)
		var got []ran
		record := func(x any) { got = append(got, ran{c.Now(), x.(int)}) }
		var handles []*Handle
		for n := 0; n < events; n++ {
			at := float64(rng.Intn(64)) / 4 // 64 distinct times: ~1500 ties each
			shard := rng.Intn(shards)
			switch rng.Intn(3) {
			case 0:
				handles = append(handles, c.ScheduleCancelableIn(shard, at, func() { got = append(got, ran{c.Now(), n}) }))
			case 1:
				c.ScheduleIn(shard, at, func() { got = append(got, ran{c.Now(), n}) })
			default:
				c.ScheduleArgIn(shard, at, record, n)
			}
		}
		cancelled := 0
		for _, h := range handles {
			if rng.Intn(2) == 0 {
				h.Cancel()
				cancelled++
			}
		}
		if c.Pending() != events-cancelled {
			t.Fatalf("%d shards: Pending = %d, want %d", shards, c.Pending(), events-cancelled)
		}
		c.Run()
		if len(got) != events-cancelled {
			t.Fatalf("%d shards: %d events ran, want %d", shards, len(got), events-cancelled)
		}
		return got
	}
	want := run(1)
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if a.at > b.at || (a.at == b.at && a.n >= b.n) {
			t.Fatalf("dispatch %d out of order: (%v, #%d) before (%v, #%d)", i, a.at, a.n, b.at, b.n)
		}
	}
	for _, shards := range []int{3, 9} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d shards: dispatch %d = %+v, want %+v", shards, i, got[i], want[i])
			}
		}
	}
}
