package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %.2f, want 3", s.P50)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("StdDev = %.4f, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.StdDev != 0 || s.P99 != 7 {
		t.Errorf("summary = %+v", s)
	}
}

func TestPercentileEdges(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, -1) != 10 {
		t.Error("p<=0 should give min")
	}
	if Percentile(sorted, 1) != 40 || Percentile(sorted, 2) != 40 {
		t.Error("p>=1 should give max")
	}
	if got := Percentile(sorted, 0.5); got != 25 {
		t.Errorf("P50 = %.1f, want 25 (interpolated)", got)
	}
}

// TestPercentileNonFinite pins the guards for non-finite p: infinities clamp
// to the extremes like any other out-of-range p, and NaN propagates instead
// of indexing with int(NaN) (whose value is platform-dependent — on some
// targets it is a huge negative number, an out-of-bounds panic).
func TestPercentileNonFinite(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		name string
		p    float64
		want float64 // NaN means "want NaN"
	}{
		{"neg-inf", math.Inf(-1), 10},
		{"pos-inf", math.Inf(1), 40},
		{"nan", math.NaN(), math.NaN()},
	}
	for _, tc := range cases {
		got := Percentile(sorted, tc.p)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Percentile = %v, want NaN", tc.name, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile([]float64{42}, math.NaN())) {
		t.Error("single-sample NaN p should still be NaN")
	}
	if Percentile(nil, math.NaN()) != 0 {
		t.Error("empty sample keeps its 0 convention even for NaN p")
	}
}

func TestSummaryPropertyBounds(t *testing.T) {
	prop := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		s := Summarize(sample)
		sorted := append([]float64(nil), sample...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 &&
			s.P50 >= s.Min && s.P50 <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarizeLargeMagnitude(t *testing.T) {
	// Absolute slot indices late in a long run: a huge offset with a tiny
	// spread. The old sqsum/n − mean² formula cancels catastrophically here
	// (it reported StdDev 0 — or NaN before the negative-variance clamp);
	// Welford keeps full precision.
	base := 1e9
	s := Summarize([]float64{base, base + 1, base + 2})
	if s.Mean != base+1 {
		t.Errorf("Mean = %v, want %v", s.Mean, base+1)
	}
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.StdDev-want) > 1e-9 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	// Identical samples at large magnitude: exactly zero spread.
	if got := Summarize([]float64{base, base, base}).StdDev; got != 0 {
		t.Errorf("constant-sample StdDev = %v, want 0", got)
	}
}

func TestPercentileBoundaries(t *testing.T) {
	if got := Percentile([]float64{42}, 0.73); got != 42 {
		t.Errorf("single-sample percentile = %v, want 42", got)
	}
	two := []float64{10, 20}
	if got := Percentile(two, 0.5); got != 15 {
		t.Errorf("P50 of two samples = %v, want 15 (linear interpolation)", got)
	}
	if Percentile(two, 0) != 10 || Percentile(two, 1) != 20 {
		t.Error("exact boundaries should return the extremes")
	}
	// Interpolation between the last two ranks.
	four := []float64{0, 10, 20, 30}
	if got := Percentile(four, 0.95); math.Abs(got-28.5) > 1e-12 {
		t.Errorf("P95 = %v, want 28.5", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "harp"
	s.Add(1, 0.0)
	s.Add(2, 0.5)
	if len(s.Points) != 2 {
		t.Fatal("Add failed")
	}
	if s.Points[0].Y != 0 || s.Points[1].Y != 0.5 {
		t.Errorf("Points = %v", s.Points)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "node", "latency")
	tab.AddRow(1, 1.234567)
	tab.AddRow("2", "x")
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "node") {
		t.Errorf("missing title/header: %q", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float not formatted: %q", out)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d", tab.Len())
	}
	// Header-only table still renders.
	empty := NewTable("", "a")
	if empty.String() == "" {
		t.Error("empty table renders nothing")
	}
	f32 := NewTable("", "v")
	f32.AddRow(float32(2.5))
	if !strings.Contains(f32.String(), "2.500") {
		t.Error("float32 not formatted")
	}
}

func TestSeriesTable(t *testing.T) {
	a := Series{Name: "random"}
	a.Add(1, 0.1)
	a.Add(2, 0.2)
	b := Series{Name: "harp"}
	b.Add(1, 0)
	tab := SeriesTable("Fig", "rate", a, b)
	out := tab.String()
	if !strings.Contains(out, "random") || !strings.Contains(out, "harp") {
		t.Errorf("missing series headers: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("short series should pad with -")
	}
	if tab.Len() != 2 {
		t.Errorf("rows = %d, want 2", tab.Len())
	}
	if SeriesTable("t", "x").Len() != 0 {
		t.Error("no-series table should be empty")
	}
}

func TestSeriesTableLongerLaterSeries(t *testing.T) {
	// A series longer than series[0] must not be truncated: rows run to the
	// longest series, short series pad with "-", and x falls back to the
	// first series that still has points.
	short := Series{Name: "short"}
	short.Add(1, 0.1)
	long := Series{Name: "long"}
	long.Add(1, 0.5)
	long.Add(2, 0.6)
	long.Add(3, 0.7)
	tab := SeriesTable("Fig", "x", short, long)
	if tab.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (longest series)", tab.Len())
	}
	out := tab.String()
	for _, want := range []string{"0.600", "0.700", "2.000", "3.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("truncated tail: missing %q in\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "-") || !strings.Contains(last, "0.700") {
		t.Errorf("last row should pad the short series with '-': %q", last)
	}
}
