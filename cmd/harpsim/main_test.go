package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCoSimTraceMatchesGolden is `make trace-smoke` as a test: the fig1
// co-simulation must exit clean and reproduce the committed golden trace
// byte for byte.
func TestCoSimTraceMatchesGolden(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "smoke.jsonl")
	if err := run([]string{"-topology", "fig1", "-cosim", "-slotframes", "30", "-trace", trace}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "harptrace", "testdata", "smoke.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace (%d bytes) differs from cmd/harptrace/testdata/smoke.jsonl (%d bytes); run `make trace-smoke` for the diff", len(got), len(want))
	}
}

// TestCoSimMetricsMatchGolden: the same run's final Prometheus exposition
// (-metrics) must equal the committed golden byte for byte. The exposition
// carries no timestamps, so it is a pure function of the seeds.
func TestCoSimMetricsMatchGolden(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "metrics.prom")
	if err := run([]string{"-topology", "fig1", "-cosim", "-slotframes", "30", "-metrics", prom}, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_smoke.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics (%d bytes) differ from testdata/metrics_smoke.prom (%d bytes)", len(got), len(want))
	}
}
