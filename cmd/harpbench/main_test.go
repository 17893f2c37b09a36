package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/harpnet/harp/internal/parallel"
)

// TestBaselineIsCurrent is the results gate: the quick suite's report is a
// pure function of the seeds, so at any worker count it must equal the
// committed BENCH_harpbench.json byte for byte — a drifted, missing or
// extra key all fail. After an intentional behaviour change regenerate with
//
//	go run ./cmd/harpbench -quick -json BENCH_harpbench.json
func TestBaselineIsCurrent(t *testing.T) {
	if raceEnabled {
		t.Skip("quick suite is too slow under the race detector")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_harpbench.json"))
	if err != nil {
		t.Fatal(err)
	}
	before := parallel.Workers()
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := run([]string{"-quick", "-workers", workers, "-json", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-workers %s: report differs from BENCH_harpbench.json; diff it against `go run ./cmd/harpbench -quick -json /tmp/report.json` and regenerate the baseline if the change is intended", workers)
		}
	}
	if got := parallel.Workers(); got != before {
		t.Errorf("run left the worker count at %d, was %d", got, before)
	}
}

// TestReportShape pins schema v2 on a real run (the scale study is the
// experiment that used to carry host-dependent keys): nothing but seed-
// determined fields at any level.
func TestReportShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := run([]string{"-only", "scale", "-scale-sizes", "1000", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(top); got != "experiments,quick,schema" {
		t.Errorf("top-level keys = %s, want experiments,quick,schema", got)
	}
	if got := string(top["schema"]); got != `"harpbench/v2"` {
		t.Errorf("schema = %s, want \"harpbench/v2\"", got)
	}
	var exps []map[string]json.RawMessage
	if err := json.Unmarshal(top["experiments"], &exps); err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 {
		t.Fatalf("%d experiments, want 1", len(exps))
	}
	if got := keysOf(exps[0]); got != "metrics,name" {
		t.Errorf("experiment keys = %s, want metrics,name", got)
	}
	var metrics map[string]float64
	if err := json.Unmarshal(exps[0]["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics["scale_1000_events"]; !ok {
		t.Errorf("scale_1000_events missing from %v", metrics)
	}
	for k := range metrics {
		if strings.HasSuffix(k, "_per_sec") || strings.HasSuffix(k, "_bytes_per_node") {
			t.Errorf("host-dependent metric key %q in the report", k)
		}
	}
}

// keysOf returns m's keys sorted and comma-joined.
func keysOf(m map[string]json.RawMessage) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestFlagValidation: a flag that configures one experiment is rejected,
// not ignored, when -only selects another; every bad invocation is a
// usageError (exit status 2) and runs nothing.
func TestFlagValidation(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-only", "fig9", "-trace", trace}, []string{"-trace", "fig10", "fig9"}},
		{[]string{"-only", "fig10", "-scale-sizes", "1000"}, []string{"-scale-sizes", "scale", "fig10"}},
		{[]string{"-only", "nope"}, []string{"unknown experiment", "nope"}},
		{[]string{"-only", "scale", "-scale-sizes", "1000,x"}, []string{"-scale-sizes", `"x"`}},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		var usage usageError
		if !errors.As(err, &usage) {
			t.Errorf("%v: err = %v, want a usageError", tc.args, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not mention %q", tc.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v: rejected invocation still printed %q", tc.args, out.String())
		}
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Errorf("rejected -trace still touched %s (stat err %v)", trace, err)
	}
}
