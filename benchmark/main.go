// Command benchmark is the repository's benchmark: five workloads that
// drive the HARP co-simulation end to end through its layers' public
// functions, timed from outside, with the outputs checked. An untraced run
// reports the end-to-end metrics; a traced run (-trace 1) is a separate
// run that records a span at every layer boundary and reports the
// per-layer metrics. BENCHMARK.json at the repository root declares what
// the driver measures; README.md in this directory explains every metric.
//
//	go run ./benchmark                       all five workloads, end to end
//	go run ./benchmark -trace 1              all five, per layer
//	go run ./benchmark -workload mac_dense   one workload; the last line is its result as JSON
//	go run ./benchmark -sets 3 -json out.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is main without the process: 0 on success, 1 when a run was
// incorrect or a comparison found a regression, 2 on misuse.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload and print its result as the last line (default: all five)")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 15, "how long one workload measures")
		trace    = fs.Int("trace", 0, "1: the traced run (spans, per-layer metrics); 0: the timed run (end-to-end metrics)")
		traceOut = fs.String("trace-out", "", "with -trace 1 and -workload: write the spans as Chrome trace-event JSON to this file")
		jsonOut  = fs.String("json", "", "write the full results (environment, every metric, every set) to this file")
		sets     = fs.Int("sets", 1, "how many times to run everything; -json keeps every set, -compare reads their spread")
		compare  = fs.Bool("compare", false, "compare two -json result files: benchmark -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out file] [-json file] [-sets n]")
		return 2
	}
	ws := fullWorkloads()
	if *name != "" {
		w := findWorkload(ws, *name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *name, joinNames(ws))
			return 2
		}
		ws = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1}

	file := resultFile{Schema: resultSchema, Env: environment(cfg)}
	correct := true
	var last result
	for s := 0; s < *sets; s++ {
		set := make(map[string]result)
		for _, w := range ws {
			r := newRun(w, cfg)
			r.execute()
			last = r.report()
			set[w.name()] = last
			printResult(stdout, last)
			correct = correct && last.Correct
			if *traceOut != "" && cfg.traced && len(ws) == 1 {
				if err := r.rec.writeChrome(*traceOut); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
			}
		}
		file.Sets = append(file.Sets, set)
	}
	if *jsonOut != "" {
		if err := file.write(*jsonOut); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if len(ws) == 1 {
		fmt.Fprintln(stdout, contractLine(last))
	}
	if !correct {
		return 1
	}
	return 0
}

// contractLine renders a result the way the driver reads it: exactly the
// end_to_end metrics of BENCHMARK.json for a timed run, exactly its
// per_layer metrics for a traced one.
func contractLine(res result) string {
	decls := endToEnd
	if res.Traced {
		decls = tracedDecls()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(decls))
	for _, d := range decls {
		metrics[d.name] = value{Value: res.Metrics[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// printResult prints every metric of a result by name, with its unit and,
// for timings, the number of samples behind it.
func printResult(w io.Writer, res result) {
	mode := "timed run"
	if res.Traced {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s (%s): seed %d, %d reps (%d pinned), %d ops attempted, %d failed, work unit = %s\n",
		res.Workload, mode, res.Seed, res.Reps, res.PinnedReps, res.Attempted, res.Failed, res.Unit)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
	for _, n := range names {
		m := res.Metrics[n]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s%s\n", n, m.Value, m.Unit, samples)
	}
	fmt.Fprintf(w, "  op_ms min/p10/p25/p50/p75/p90/max   %.4g / %.4g / %.4g / %.4g / %.4g / %.4g / %.4g\n",
		res.OpMS["p0"], res.OpMS["p10"], res.OpMS["p25"], res.OpMS["p50"], res.OpMS["p75"], res.OpMS["p90"], res.OpMS["p100"])
	fmt.Fprintf(w, "  %-34s %16s\n", "vt_digest", res.Digest)
	for _, n := range res.Info {
		fmt.Fprintf(w, "  - %s\n", n)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
	if !res.Correct {
		fmt.Fprintf(w, "  ! INCORRECT: see the failures above\n")
	}
}

// metricOrder sorts metrics in declaration order.
func metricOrder(name string) int {
	i := 0
	for _, list := range [][]metricDecl{{failShare}, endToEnd, workloadMetrics, perLayer} {
		for _, d := range list {
			if d.name == name {
				return i
			}
			i++
		}
	}
	return i
}

const resultSchema = "harp-benchmark/v1"

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Schema string              `json:"schema"`
	Env    env                 `json:"env"`
	Sets   []map[string]result `json:"sets"`
	// Summary gives, per workload and metric, the median and quartiles
	// over the sets (for a reader; -compare recomputes them).
	Summary map[string]map[string]spread `json:"summary"`
}

type env struct {
	Host       string  `json:"host"`
	Date       string  `json:"date"`
	OS         string  `json:"os_arch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func environment(cfg config) env {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return env{
		Host: host, Date: time.Now().UTC().Format("2006-01-02"), OS: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
	}
}

// spread is a metric's median and quartiles over a file's sets.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spreadOf folds the values a metric took over the sets.
func spreadOf(values []float64) spread {
	vs := append([]float64(nil), values...)
	return spread{Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), N: len(vs)}
}

// series returns the values of one workload's metric across the sets.
func (f *resultFile) series(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if res, ok := set[workload]; ok {
			if m, ok := res.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func (f *resultFile) workloads() []string {
	seen := make(map[string]bool)
	for _, set := range f.Sets {
		for w := range set {
			seen[w] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

func (f *resultFile) write(path string) error {
	f.Summary = make(map[string]map[string]spread)
	for _, w := range f.workloads() {
		f.Summary[w] = make(map[string]spread)
		for metric := range f.Sets[0][w].Metrics {
			f.Summary[w][metric] = spreadOf(f.series(w, metric))
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema || len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: not a %s result file", path, resultSchema)
	}
	return &f, nil
}

// joinNames renders a workload list for messages.
func joinNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name()
	}
	return strings.Join(names, ", ")
}
