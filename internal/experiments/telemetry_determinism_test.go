package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/harpnet/harp/internal/obs"
)

// The telemetry contract: distributions, windowed series, health
// reports and the protocol trace are integer folds over virtual time,
// so a fixed seed must produce byte-identical telemetry at any worker
// count. These tests run the traced experiments serial and parallel and
// compare every exported surface.

// promText renders a run's final metrics snapshot through the same
// exposition harpsim -metrics writes — a byte-level digest of every
// counter, gauge, histogram bucket and window.
func promText(t *testing.T, snap obs.Snapshot) string {
	t.Helper()
	if len(snap.Counters) == 0 {
		t.Fatal("run recorded no final metrics")
	}
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb, snap); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func traceText(t *testing.T, events []obs.Event) string {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("run recorded no trace events")
	}
	var sb strings.Builder
	if err := obs.WriteJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestFig10TelemetryWorkerCountInvariant(t *testing.T) {
	runAt := func(workers int) Fig10Result {
		cfg := DefaultFig10()
		cfg.Trace = true
		var res Fig10Result
		withWorkers(t, workers, func() {
			r, err := Fig10(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res = r
		})
		return res
	}
	serial, parallel4 := runAt(1), runAt(4)

	if serial.EscCommit != parallel4.EscCommit {
		t.Errorf("escalation->commit histograms differ:\nserial:   %+v\nparallel: %+v",
			serial.EscCommit, parallel4.EscCommit)
	}
	if serial.EscCommit.Count == 0 {
		t.Error("fig10 observed no escalation->commit latencies")
	}
	if !reflect.DeepEqual(serial.Health, parallel4.Health) {
		t.Errorf("health reports differ:\nserial:   %+v\nparallel: %+v", serial.Health, parallel4.Health)
	}
	if serial.Health == nil || !serial.Health.OK {
		t.Errorf("fig10 default scenario graded unhealthy: %+v", serial.Health)
	}
	if s, p := traceText(t, serial.Trace), traceText(t, parallel4.Trace); s != p {
		t.Error("protocol traces differ between worker counts")
	}
	if s, p := promText(t, serial.Metrics), promText(t, parallel4.Metrics); s != p {
		t.Errorf("final metric snapshots differ between worker counts:\n%s\nvs\n%s", s, p)
	}
	// The snapshot must include the windowed series the MAC and agents fed.
	var kinds []string
	for _, w := range serial.Metrics.Series {
		kinds = append(kinds, w.Key.Kind)
	}
	for _, want := range []string{obs.MetricWinQueueDepth, obs.MetricWinPending} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("final snapshot missing series %q (has %v)", want, kinds)
		}
	}
}

func TestChaosTelemetryWorkerCountInvariant(t *testing.T) {
	runAt := func(workers int) ChaosExpResult {
		cfg := DefaultChaosExp()
		cfg.Trace = true
		var res ChaosExpResult
		withWorkers(t, workers, func() {
			r, err := ChaosExp(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res = r
		})
		return res
	}
	serial, parallel4 := runAt(1), runAt(4)

	if serial.DetectAdopt != parallel4.DetectAdopt {
		t.Errorf("detect->adopt histograms differ:\nserial:   %+v\nparallel: %+v",
			serial.DetectAdopt, parallel4.DetectAdopt)
	}
	if serial.DetectAdopt.Count == 0 {
		t.Error("chaos storm observed no detect->adopt latencies")
	}
	if !reflect.DeepEqual(serial.Health, parallel4.Health) {
		t.Errorf("health reports differ:\nserial:   %+v\nparallel: %+v", serial.Health, parallel4.Health)
	}
	if s, p := traceText(t, serial.Trace), traceText(t, parallel4.Trace); s != p {
		t.Error("protocol traces differ between worker counts")
	}
	if s, p := promText(t, serial.Metrics), promText(t, parallel4.Metrics); s != p {
		t.Error("final metric snapshots differ between worker counts")
	}
}
