package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// toyRun runs one toy-size workload for its pinned reps only.
func toyRun(t *testing.T, name string, traced bool) result {
	t.Helper()
	w := findWorkload(toyWorkloads(), name)
	if w == nil {
		t.Fatalf("no toy workload %q", name)
	}
	r := newRun(w, config{seed: 7, seconds: 1e-9, traced: traced})
	r.execute()
	return r.report()
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs all five workloads at toy size, timed and traced, and
// checks what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	for _, w := range toyWorkloads() {
		name := w.name()
		t.Run(name, func(t *testing.T) {
			if !nameRE.MatchString(name) {
				t.Errorf("workload name %q", name)
			}
			timed, again := toyRun(t, name, false), toyRun(t, name, false)
			if !timed.Correct || timed.Failed != 0 || timed.Metrics["fail_share"].Value != 0 {
				t.Fatalf("timed run incorrect: %d of %d ops failed: %v", timed.Failed, timed.Attempted, timed.Notes)
			}
			if timed.Digest != again.Digest {
				t.Errorf("vt_digest differs between two runs of one seed: %s, %s", timed.Digest, again.Digest)
			}
			for _, d := range timedDecls() {
				_, ok := timed.Metrics[d.name]
				if ok != d.appliesTo(name) {
					t.Errorf("%s: reported=%v, applies=%v", d.name, ok, d.appliesTo(name))
				}
				if strings.HasPrefix(d.name, "vt_") && timed.Metrics[d.name] != again.Metrics[d.name] {
					t.Errorf("%s differs between two runs of one seed", d.name)
				}
			}
			checkLine(t, contractLine(timed), endToEnd, true)

			traced := toyRun(t, name, true)
			if !traced.Correct || traced.Metrics["harness.fidelity_ok"].Value != 1 {
				t.Fatalf("traced run incorrect: fidelity_ok=%v, %v", traced.Metrics["harness.fidelity_ok"].Value, traced.Notes)
			}
			if traced.Digest != timed.Digest {
				t.Errorf("traced run's vt_digest %s differs from the timed run's %s", traced.Digest, timed.Digest)
			}
			checkLine(t, contractLine(traced), tracedDecls(), false)
		})
	}
}

// checkLine asserts a result line carries exactly the declared metrics,
// each once, finite, under a well-formed name.
func checkLine(t *testing.T, line string, decls []metricDecl, nonZero bool) {
	t.Helper()
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(decls) {
		t.Errorf("result line has %d metrics, %d declared", len(got.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := got.Metrics[d.name]
		switch {
		case !nameRE.MatchString(d.name):
			t.Errorf("metric name %q", d.name)
		case !ok:
			t.Errorf("%s missing from the result line", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.unit:
			t.Errorf("%s = %v %q, want a finite value in %q", d.name, m.Value, m.Unit, d.unit)
		case nonZero && m.Value == 0:
			t.Errorf("%s is 0", d.name)
		}
	}
}

// faulty is a workload whose second op panics and third returns an error.
type faulty struct{}

func (faulty) name() string { return "faulty" }
func (faulty) unit() string { return "op" }
func (faulty) minReps() int { return 1 }
func (faulty) rep(r *run, _ int) {
	r.setup(func() error { return nil })
	for k := 0; k < 4; k++ {
		r.op(func() (float64, error) {
			switch k {
			case 1:
				var m map[string]int
				m["boom"]++ // assignment to entry in nil map
			case 2:
				return 0, errors.New("refused")
			}
			return 1, nil
		})
	}
}

// TestFailedOpsAreCounted: a panicking op and an erroring op are counted
// in fail_share, do not abort the run and leave no timing sample.
func TestFailedOpsAreCounted(t *testing.T) {
	r := newRun(faulty{}, config{seed: 1, seconds: 1e-9})
	r.execute()
	res := r.report()
	if res.Attempted != 4 || res.Failed != 2 || res.Correct {
		t.Errorf("attempted=%d failed=%d correct=%v, want 4, 2, false", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["fail_share"].Value; got != 0.5 {
		t.Errorf("fail_share = %v, want 0.5", got)
	}
	if n := res.Metrics["op_ms_p50"].Samples; n != 2 || len(r.meas.rate) != 2 {
		t.Errorf("%d timing samples, want the 2 successful ops only", n)
	}
	if len(res.Notes) != 2 || !strings.Contains(res.Notes[0], "panic") {
		t.Errorf("notes = %q", res.Notes)
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the declarations in
// this package from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	full := fullWorkloads()
	if len(file.Workloads) != len(full) {
		t.Errorf("%d workloads declared, %d implemented", len(file.Workloads), len(full))
	}
	for _, w := range file.Workloads {
		if findWorkload(full, w.Name) == nil || findWorkload(toyWorkloads(), w.Name) == nil || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %q: unknown, without a toy size, or with another why than workloadWhy", w.Name)
		}
	}
	same := func(kind string, got []metric, want []metricDecl, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounds && g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, tracedDecls(), false)
}

// TestCompare: equal files agree; a slower file, a failing file and a
// file whose simulated results differ do not.
func TestCompare(t *testing.T) {
	file := func(opMS float64, failShare float64, digest string) *resultFile {
		f := &resultFile{Schema: resultSchema}
		for i := 0; i < 3; i++ {
			f.Sets = append(f.Sets, map[string]result{"mac_dense": {
				Workload: "mac_dense", Seed: 1, PinnedReps: 2, Digest: digest,
				Metrics: map[string]metricValue{
					"op_ms_p50":  {Value: opMS * (1 + 0.001*float64(i)), Unit: "ms"},
					"fail_share": {Value: failShare, Unit: "share"},
				},
			}})
		}
		return f
	}
	base := file(10, 0, "aa")
	for _, tc := range []struct {
		name string
		cur  *resultFile
		want int
	}{
		{"same", file(10, 0, "aa"), 0},
		{"within bound", file(11, 0, "aa"), 0},
		{"faster", file(5, 0, "aa"), 0},
		{"slower", file(13, 0, "aa"), 1},
		{"failing", file(10, 0.01, "aa"), 1},
		{"digest", file(10, 0, "bb"), 1},
	} {
		if got := compareResults(base, tc.cur, io.Discard); got != tc.want {
			t.Errorf("%s: compare returned %d, want %d", tc.name, got, tc.want)
		}
	}
	noisy := file(10, 0, "aa")
	for i, set := range noisy.Sets {
		set["mac_dense"].Metrics["op_ms_p50"] = metricValue{Value: 7 + 5*float64(i), Unit: "ms"}
	}
	if got := compareResults(base, noisy, io.Discard); got != 1 {
		t.Errorf("a spread wider than the bound must be unresolved, compare returned %d", got)
	}
}
