package experiments

import (
	"reflect"
	"testing"
)

// TestChaosExpHeals runs the committed 1000-node storm and checks the
// study's own acceptance bar: a real victim population (≥10% of the
// fleet), every permanent outage detected, every survivor re-homed, and
// plausible virtual-time latencies.
func TestChaosExpHeals(t *testing.T) {
	cfg := DefaultChaosExp()
	res, err := ChaosExp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Victims < cfg.Nodes/10 {
		t.Errorf("victims = %d, want >= 10%% of %d nodes", res.Victims, cfg.Nodes)
	}
	if res.PermanentVictims == 0 {
		t.Error("storm drew no permanent victims")
	}
	if res.Deaths < res.PermanentVictims {
		t.Errorf("deaths %d < permanent victims %d: a permanent outage went undetected",
			res.Deaths, res.PermanentVictims)
	}
	if res.OrphansRemaining != 0 {
		t.Errorf("orphans remaining = %d, want 0", res.OrphansRemaining)
	}
	// Detection sits just past DeadAfter (4 slotframes) for isolated
	// victims; root-cause attribution defers nested crashes by up to a
	// DeadAfter per level, so the maximum stays bounded but larger.
	if res.DetectP50Sf < 4 || res.DetectP50Sf > 8 {
		t.Errorf("detect p50 = %v sf, want within (4, 8)", res.DetectP50Sf)
	}
	if res.DetectMaxSf < res.DetectP50Sf || res.DetectMaxSf > 30 {
		t.Errorf("detect max = %v sf, want within [p50, 30]", res.DetectMaxSf)
	}
	if res.Keepalives == 0 {
		t.Error("no keepalives counted")
	}
}

// TestChaosExpDeterministic runs the storm twice: every reported quantity
// is virtual-time and must be bit-identical.
func TestChaosExpDeterministic(t *testing.T) {
	a, err := ChaosExp(DefaultChaosExp())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosExp(DefaultChaosExp())
	if err != nil {
		t.Fatal(err)
	}
	a.Table, b.Table = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos runs differ:\n%+v\n%+v", a, b)
	}
}

// TestChaosStrayReportSeeds replays the three storms that used to panic
// with "assignment to entry in nil map": a node dropped as dead came back
// on the transport before the detector readmitted it, and re-reported its
// interface (non-Join) to a former parent left childless and map-free.
// The stray report is now dropped, so every run must return. Seed 17 then
// heals completely; seeds 1 and 2 return the storm's own verdict (orphans
// left, or no quiescence within the drain) like seeds 3, 7 and 11 do —
// that is the open self-healing work, not this handler's.
func TestChaosStrayReportSeeds(t *testing.T) {
	for _, seed := range []int64{17, 1, 2} {
		cfg := DefaultChaosExp()
		cfg.Seed = seed
		_, err := ChaosExp(cfg) // a panic fails the test
		if err != nil && seed == 17 {
			t.Errorf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: returned, err = %v", seed, err)
	}
}
