// Package stats provides the small statistical and tabular-reporting
// toolkit the experiment harness uses: scalar summaries with percentiles,
// labelled time series, and fixed-width text tables matching the rows and
// series the paper reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary condenses a sample of float64 observations.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of the sample. An empty sample yields the
// zero Summary.
func Summarize(sample []float64) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	// Welford's online algorithm: the textbook sqsum/n − mean² form loses
	// all significant digits to catastrophic cancellation when the sample
	// magnitude dwarfs its spread (e.g. absolute slot indices late in a
	// long run), and can even go negative.
	var mean, m2 float64
	for i, v := range sorted {
		delta := v - mean
		mean += delta / float64(i+1)
		m2 += delta * (v - mean)
	}
	n := float64(len(sorted))
	variance := m2 / n
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		StdDev: math.Sqrt(variance),
		P50:    Percentile(sorted, 0.50),
		P95:    Percentile(sorted, 0.95),
		P99:    Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample by linear interpolation between the two nearest ranks (the
// "exclusive" variant with rank p·(n−1)): Percentile([10,20], 0.5) is 15,
// not either sample. p outside [0, 1] clamps to the extremes; a NaN p yields
// NaN (it falls through both clamp comparisons, so without an explicit guard
// it would reach the index computation with int(NaN), whose value is
// platform-dependent).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Point is one (x, y) observation of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points — one plotted line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Table renders rows of experiment output as fixed-width text.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Cell returns the rendered cell at (row, col), or "" out of bounds — the
// hook machine consumers (cmd/harpbench's -json report) use to lift
// headline numbers back out of a rendered table.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title) //harplint:allow errcheck strings.Builder writes cannot fail
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ") //harplint:allow errcheck strings.Builder writes cannot fail
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell) //harplint:allow errcheck strings.Builder writes cannot fail
		}
		b.WriteByte('\n') //harplint:allow errcheck strings.Builder writes cannot fail
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// SeriesTable renders several series sharing the same x grid as one table:
// first column is x, then one column per series. Rows run to the longest
// series — a series without a point at some row gets "-" there, whichever
// side of the table it is on — and each row's x comes from the first series
// long enough to have that point.
func SeriesTable(title, xLabel string, series ...Series) *Table {
	headers := append([]string{xLabel}, make([]string, len(series))...)
	rows := 0
	for i, s := range series {
		headers[i+1] = s.Name
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	t := NewTable(title, headers...)
	for i := 0; i < rows; i++ {
		row := make([]any, 1, len(series)+1)
		row[0] = "-"
		haveX := false
		for _, s := range series {
			if i < len(s.Points) {
				if !haveX {
					row[0] = s.Points[i].X
					haveX = true
				}
				row = append(row, s.Points[i].Y)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}
