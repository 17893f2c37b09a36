package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's values over the sets of two result files and
// returns the verdict and the relative change of the median. The medians
// decide: worse (or better) means the new median moved by more
// than the metric's bound. When either file's own spread — the distance
// between its quartiles — is wider than the bound, the row is unresolved
// instead, unless every new value reads better (or every one worse) than
// every old value.
func judge(d metricDecl, old, new []float64) (verdict string, change float64) {
	o, n := spreadOf(old), spreadOf(new)
	allowed := d.bound*math.Abs(o.Median) + d.slack
	worse := n.Median - o.Median // by how much the new median is worse
	if d.better == "higher" {
		worse = -worse
	}
	if o.Median != 0 {
		change = (n.Median - o.Median) / math.Abs(o.Median)
	}
	switch {
	case worse > allowed:
		verdict = verdictWorse
	case -worse > allowed && allowed > 0:
		verdict = verdictBetter
	default:
		verdict = verdictWithin
	}
	if wide := math.Max(o.Q3-o.Q1, n.Q3-n.Q1); wide > allowed && allowed > 0 && !disjoint(old, new) {
		verdict = verdictUnresolved
	}
	return verdict, change
}

// disjoint reports whether every value of one sample lies strictly on one
// side of every value of the other.
func disjoint(a, b []float64) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns 1 if any row is worse or unresolved, or if the
// simulated results of equal seeds differ.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResultFile(oldPath)
	if err == nil {
		var cur *resultFile
		if cur, err = readResultFile(newPath); err == nil {
			return compareResults(old, cur, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareResults(old, cur *resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "old: %s %s, %d sets, seed %d    new: %s %s, %d sets, seed %d\n",
		old.Env.Host, old.Env.Date, len(old.Sets), old.Env.Seed, cur.Env.Host, cur.Env.Date, len(cur.Sets), cur.Env.Seed)
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	bad := 0
	for _, w := range old.workloads() {
		for _, d := range timedDecls() {
			o, n := old.series(w, d.name), cur.series(w, d.name)
			if !d.appliesTo(w) || len(o) == 0 || len(n) == 0 {
				continue
			}
			if strings.HasPrefix(d.name, "vt_") && old.Env.Seed != cur.Env.Seed {
				continue // simulated results of different inputs do not compare
			}
			verdict, change := judge(d, o, n)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				w, d.name, spreadOf(o).Median, spreadOf(n).Median, 100*change, 100*d.bound, verdict)
		}
		if ds := digests(old, cur, w); len(ds) > 1 {
			bad++
			fmt.Fprintf(stdout, "%-16s %-22s MISMATCH for equal seeds: %v\n", w, "vt_digest", ds)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse, unresolved or mismatched\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "no row worse, none unresolved")
	return 0
}

// digests returns the distinct vt_digest values the workload's runs
// produced across both files. Runs of the same seed and pinned reps must
// agree, so more than one value is a mismatch; files of different seeds
// are not compared.
func digests(old, cur *resultFile, w string) []string {
	var out []string
	seen := make(map[string]bool)
	first, ok := old.Sets[0][w]
	if !ok {
		return nil
	}
	for _, f := range []*resultFile{old, cur} {
		for _, set := range f.Sets {
			res, ok := set[w]
			if !ok || res.Seed != first.Seed || res.PinnedReps != first.PinnedReps || seen[res.Digest] {
				continue
			}
			seen[res.Digest] = true
			out = append(out, res.Digest)
		}
	}
	return out
}
