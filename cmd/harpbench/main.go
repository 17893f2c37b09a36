// Command harpbench regenerates the paper's evaluation: every table and
// figure of HARP (ICDCS 2022) plus the repository's ablation studies.
//
// Usage:
//
//	harpbench                 # run everything
//	harpbench -only fig11a    # one experiment: table1|fig7d|fig9|fig10|table2|fig11a|fig11b|fig12|churn|ablations|losssweep|scale|chaos
//	harpbench -scale-sizes 1000,10000  # override the scale study's fleet sizes
//	harpbench -quick          # reduced repetition counts for a fast pass
//	harpbench -workers 1      # force the serial path (0 = GOMAXPROCS)
//	harpbench -json out.json  # also write the machine-readable results record
//	harpbench -trace t.jsonl  # record the fig10 co-simulation's protocol trace
//	harpbench -cpuprofile p   # write a pprof CPU profile of the run
//	harpbench -memprofile p   # write a pprof heap profile at exit
//
// Output is the same rows/series the paper reports, as fixed-width text
// tables on stdout. With -json, the headline metric values are written as a
// BENCH_harpbench.json-style record. Every value in it is a virtual-time
// result, so the file is a pure function of the seeds — byte-identical at
// any -workers count on any host — and the committed BENCH_harpbench.json
// is checked by byte equality (TestBaselineIsCurrent). Host time and
// memory live in benchmark/. The schema is documented in DESIGN.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/harpnet/harp/internal/experiments"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/parallel"
	"github.com/harpnet/harp/internal/stats"
)

// reportSchema names the -json output format; bump on breaking changes.
const reportSchema = "harpbench/v2"

// report is the top-level -json document.
type report struct {
	Schema      string      `json:"schema"`
	Quick       bool        `json:"quick"`
	Experiments []expRecord `json:"experiments"`
}

// expRecord is one experiment's headline metrics.
type expRecord struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// usageError is a bad invocation; main exits 2 on it, as flag itself does.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harpbench:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("harpbench", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment (table1, fig7d, fig9, fig10, table2, fig11a, fig11b, fig12, churn, ablations, losssweep, scale, chaos)")
	scaleSizes := fs.String("scale-sizes", "", "comma-separated fleet sizes for the scale study (default 1000,10000,50000)")
	quick := fs.Bool("quick", false, "reduced repetitions for a fast pass")
	workers := fs.Int("workers", 0, "worker count for the parallel sweep engine (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := fs.String("json", "", "write the machine-readable results record to this path")
	tracePath := fs.String("trace", "", "record the fig10 co-simulation's protocol trace to this JSONL path")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this path at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError(err.Error())
	}

	runner := &runner{out: stdout, quick: *quick, trace: *tracePath}
	all := []struct {
		name string
		fn   func() (map[string]float64, error)
	}{
		{"table1", runner.table1},
		{"fig7d", runner.fig7d},
		{"fig9", runner.fig9},
		{"fig10", runner.fig10},
		{"table2", runner.table2},
		{"fig11a", runner.fig11a},
		{"fig11b", runner.fig11b},
		{"fig12", runner.fig12},
		{"churn", runner.churn},
		{"ablations", runner.ablations},
		{"losssweep", runner.losssweep},
		{"scale", runner.scale},
		{"chaos", runner.chaos},
	}
	selected := all
	if *only != "" {
		selected = nil
		for _, e := range all {
			if e.name == *only {
				selected = append(selected, e)
			}
		}
		if len(selected) == 0 {
			return usageError(fmt.Sprintf("unknown experiment %q", *only))
		}
		// A flag that configures one experiment is an error, not a no-op,
		// when -only selects a different one.
		if *tracePath != "" && *only != "fig10" {
			return usageError(fmt.Sprintf("-trace records the fig10 experiment, which -only %s does not run", *only))
		}
		if *scaleSizes != "" && *only != "scale" {
			return usageError(fmt.Sprintf("-scale-sizes configures the scale experiment, which -only %s does not run", *only))
		}
	}
	if *scaleSizes != "" {
		for _, s := range strings.Split(*scaleSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				return usageError(fmt.Sprintf("bad -scale-sizes entry %q", s))
			}
			runner.scaleSizes = append(runner.scaleSizes, n)
		}
	}

	// The worker count is process-wide: restore it on return so an
	// in-process caller (the tests) is left as it was.
	defer parallel.SetWorkers(parallel.SetWorkers(*workers))

	// Both profile files are created before any experiment runs, so a bad
	// path fails fast; their write and close errors become run's error.
	if *cpuProfile != "" {
		f, createErr := os.Create(*cpuProfile)
		if createErr != nil {
			return createErr
		}
		if startErr := pprof.StartCPUProfile(f); startErr != nil {
			f.Close() //harplint:allow errcheck the start error takes precedence over close-on-error
			return startErr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	if *memProfile != "" {
		f, createErr := os.Create(*memProfile)
		if createErr != nil {
			return createErr
		}
		defer func() {
			runtime.GC()
			err = errors.Join(err, pprof.WriteHeapProfile(f), f.Close())
		}()
	}

	rep := report{Schema: reportSchema, Quick: *quick}
	for _, e := range selected {
		expStart := time.Now()
		metrics, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		// Progress for the operator only: wall time never enters the report.
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.name, time.Since(expStart).Round(time.Millisecond))
		rep.Experiments = append(rep.Experiments, expRecord{Name: e.name, Metrics: metrics})
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bench report written to %s\n", *jsonPath)
	}
	return nil
}

// writeReport marshals the report with stable indentation (and
// encoding/json's sorted map keys) so the file is byte-reproducible and
// committed BENCH_*.json trajectories diff cleanly.
func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type runner struct {
	// out receives the text tables (the process's stdout).
	out   io.Writer
	quick bool
	// trace is the -trace output path; when set, fig10's measured
	// co-simulation records its protocol trace there.
	trace string
	// scaleSizes overrides the scale study's fleet sizes (-scale-sizes).
	scaleSizes []int
}

func (r *runner) table1() (map[string]float64, error) {
	t := experiments.TableIHandlers()
	fmt.Fprintln(r.out, t)
	return map[string]float64{"handlers": float64(t.Len())}, nil
}

func (r *runner) fig7d() (map[string]float64, error) {
	res, err := experiments.Fig7d()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	fmt.Fprintln(r.out, res.Map)
	fmt.Fprintf(r.out, "static phase messages: %d interface, %d partition, %d schedule (total %d)\n",
		res.Static.InterfaceMessages, res.Static.PartitionMessages,
		res.Static.ScheduleMessages, res.Static.Total())
	return map[string]float64{
		"static_msgs_total": float64(res.Static.Total()),
		"partitions":        float64(res.Table.Len()),
	}, nil
}

func (r *runner) fig9() (map[string]float64, error) {
	cfg := experiments.DefaultFig9()
	if r.quick {
		cfg.Minutes = 3
	}
	res, err := experiments.Fig9(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	fmt.Fprintf(r.out, "slotframe duration: %.2fs (the paper's latency bound)\n", res.SlotframeSec)
	worst := 0.0
	for _, n := range res.Nodes {
		if n.MeanSec > worst {
			worst = n.MeanSec
		}
	}
	return map[string]float64{
		"worst_mean_latency_s": worst,
		"slotframe_s":          res.SlotframeSec,
	}, nil
}

func (r *runner) fig10() (map[string]float64, error) {
	// The disruption window is the gap between the rate step and the slot
	// the real CoAP exchange committed its schedule on the shared clock.
	mcfg := experiments.DefaultFig10()
	mcfg.Trace = r.trace != ""
	measured, err := experiments.Fig10(mcfg)
	if err != nil {
		return nil, err
	}
	if r.trace != "" {
		if err := obs.WriteJSONLFile(r.trace, measured.Trace); err != nil {
			return nil, err
		}
		fmt.Fprintf(r.out, "protocol trace written to %s (%d events)\n\n", r.trace, len(measured.Trace))
	}
	fmt.Fprintln(r.out, "co-simulated (measured commit slots):")
	for _, e := range measured.Events {
		fmt.Fprintf(r.out, "t=%.1fs: rate -> %.1f pkt/sf, %s, %d HARP msgs + %d sched msgs, reconfigured in %.2fs (%d slotframes)\n",
			e.AtSec, e.Rate, e.Case, e.Messages, e.SchedMsgs, e.DelaySec, e.Slotframes)
	}
	fmt.Fprintln(r.out)
	fmt.Fprintln(r.out, measured.Table)
	fmt.Fprintf(r.out, "max latency (measured): %.2fs\n", measured.MaxLatencySec)
	if measured.Health != nil {
		if err := measured.Health.WriteText(r.out); err != nil {
			return nil, err
		}
	}

	metrics := map[string]float64{
		"cosim_max_latency_s": measured.MaxLatencySec,
		"cosim_swap_drops":    float64(measured.SwapDrops),
	}
	if n := len(measured.Events); n > 0 {
		last := measured.Events[n-1]
		metrics["cosim_last_event_msgs"] = float64(last.Messages)
		metrics["cosim_disruption_s"] = last.DelaySec
	}
	// Escalation→commit latency distribution (milli-slots): integer-exact
	// virtual-time quantities.
	metrics["cosim_esc_commit_p50_ms"] = float64(measured.EscCommit.Quantile(0.5))
	metrics["cosim_esc_commit_p99_ms"] = float64(measured.EscCommit.Quantile(0.99))
	metrics["cosim_esc_commit_max_ms"] = float64(measured.EscCommit.Max)
	return metrics, nil
}

func (r *runner) table2() (map[string]float64, error) {
	res, err := experiments.TableII(experiments.DefaultTableII())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	maxMsgs := 0
	for _, row := range res.Rows {
		if row.Messages > maxMsgs {
			maxMsgs = row.Messages
		}
	}
	return map[string]float64{"max_event_msgs": float64(maxMsgs)}, nil
}

// seriesEnd returns the named series' y value at its final point.
func seriesEnd(series []stats.Series, name string) float64 {
	for _, s := range series {
		if s.Name == name && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return 0
}

// seriesStart returns the named series' y value at its first point.
func seriesStart(series []stats.Series, name string) float64 {
	for _, s := range series {
		if s.Name == name && len(s.Points) > 0 {
			return s.Points[0].Y
		}
	}
	return 0
}

func (r *runner) fig11a() (map[string]float64, error) {
	cfg := experiments.DefaultFig11a()
	if r.quick {
		cfg.Topologies = 10
	}
	res, err := experiments.Fig11a(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	fmt.Fprintf(r.out, "mean total cells per slotframe across the sweep: %.0f .. %.0f\n",
		res.TotalCells[0], res.TotalCells[len(res.TotalCells)-1])
	return map[string]float64{
		"harp_prob_rate8":   seriesEnd(res.Series, "harp"),
		"random_prob_rate8": seriesEnd(res.Series, "random"),
		"total_cells_rate8": res.TotalCells[len(res.TotalCells)-1],
	}, nil
}

func (r *runner) fig11b() (map[string]float64, error) {
	cfg := experiments.DefaultFig11b()
	if r.quick {
		cfg.Topologies = 10
	}
	res, err := experiments.Fig11b(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	return map[string]float64{
		"harp_prob_2ch":   seriesStart(res.Series, "harp"),
		"random_prob_2ch": seriesStart(res.Series, "random"),
	}, nil
}

func (r *runner) fig12() (map[string]float64, error) {
	cfg := experiments.DefaultFig12()
	if r.quick {
		cfg.Topologies = 3
	}
	res, err := experiments.Fig12(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	return map[string]float64{
		"apas_msgs_deepest": seriesEnd(res.Series, "apas"),
		"harp_msgs_deepest": seriesEnd(res.Series, "harp"),
	}, nil
}

func (r *runner) churn() (map[string]float64, error) {
	cfg := experiments.DefaultChurn()
	if r.quick {
		cfg.Events = 8
	}
	res, err := experiments.Churn(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	mean := 0.0
	for _, m := range res.MigrationMessages {
		mean += m
	}
	if len(res.MigrationMessages) > 0 {
		mean /= float64(len(res.MigrationMessages))
	}
	return map[string]float64{
		"switches":            float64(res.Switches),
		"migrated":            float64(res.Migrated),
		"mean_migration_msgs": mean,
		"rebuild_msgs":        float64(res.StaticMessages),
	}, nil
}

func (r *runner) losssweep() (map[string]float64, error) {
	res, err := experiments.LossSweep(experiments.DefaultLossSweep())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	metrics := map[string]float64{}
	boolAs := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, p := range res.Points {
		key := fmt.Sprintf("loss_pdr%02.0f", p.PDR*100)
		metrics[key+"_retx"] = float64(p.StaticRetransmissions + p.Retransmissions)
		metrics[key+"_dup_suppressed"] = float64(p.DuplicatesSuppressed)
		metrics[key+"_giveups"] = float64(p.GiveUps)
		metrics[key+"_conv_sf"] = float64(p.ConvergenceSlotframes)
		metrics[key+"_matches_lossless"] = boolAs(p.MatchesLossless)
	}
	// CON RTT distribution merged across every PDR point (milli-slots):
	// virtual-time exact.
	metrics["loss_rtt_p50_ms"] = float64(res.ConRtt.Quantile(0.5))
	metrics["loss_rtt_p99_ms"] = float64(res.ConRtt.Quantile(0.99))
	metrics["loss_rtt_max_ms"] = float64(res.ConRtt.Max)
	return metrics, nil
}

func (r *runner) scale() (map[string]float64, error) {
	cfg := experiments.DefaultScale()
	if len(r.scaleSizes) > 0 {
		cfg.Sizes = r.scaleSizes
	}
	res, err := experiments.Scale(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	metrics := map[string]float64{}
	for _, p := range res.Points {
		key := fmt.Sprintf("scale_%d", p.Nodes)
		// static/adjust slots, commits and event counts are virtual-time
		// quantities: seed-deterministic at any worker or shard count.
		metrics[key+"_static_slots"] = p.StaticSlots
		metrics[key+"_adjust_slots"] = p.AdjustSlots
		metrics[key+"_commits"] = float64(p.Commits)
		metrics[key+"_events"] = float64(p.Events)
		metrics[key+"_shards"] = float64(p.Shards)
	}
	return metrics, nil
}

func (r *runner) chaos() (map[string]float64, error) {
	res, err := experiments.ChaosExp(experiments.DefaultChaosExp())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(r.out, res.Table)
	if res.Health != nil {
		if err := res.Health.WriteText(r.out); err != nil {
			return nil, err
		}
	}
	// All chaos keys are virtual-time quantities: seed-deterministic at any
	// worker or shard count.
	key := fmt.Sprintf("chaos_%d", res.Nodes)
	return map[string]float64{
		key + "_victims":           float64(res.Victims),
		key + "_permanent":         float64(res.PermanentVictims),
		key + "_deaths":            float64(res.Deaths),
		key + "_adoptions":         float64(res.Adoptions),
		key + "_readmissions":      float64(res.Readmissions),
		key + "_aborts":            float64(res.Aborts),
		key + "_false_positives":   float64(res.FalsePositives),
		key + "_detect_p50_sf":     res.DetectP50Sf,
		key + "_detect_max_sf":     res.DetectMaxSf,
		key + "_rehome_max_sf":     res.RehomeMaxSf,
		key + "_availability":      res.Availability,
		key + "_orphans_remaining": float64(res.OrphansRemaining),
		key + "_keepalives":        float64(res.Keepalives),
		key + "_shards":            float64(res.Shards),
		key + "_adopt_p50_ms":      float64(res.DetectAdopt.Quantile(0.5)),
		key + "_adopt_p99_ms":      float64(res.DetectAdopt.Quantile(0.99)),
		key + "_adopt_max_ms":      float64(res.DetectAdopt.Max),
	}, nil
}

func (r *runner) ablations() (map[string]float64, error) {
	cfg := experiments.DefaultAblation()
	if r.quick {
		cfg.Instances = 50
	}
	metrics := map[string]float64{}
	for _, a := range []struct {
		name string
		fn   func(experiments.AblationConfig) (*stats.Table, error)
	}{
		{"two_pass", experiments.AblationTwoPass},
		{"layered_interface", experiments.AblationLayeredInterface},
		{"adjustment", experiments.AblationAdjustment},
		{"packers", experiments.AblationPackers},
	} {
		table, err := a.fn(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(r.out, table)
		// Every ablation table is two rows of (variant, mean value): row 0
		// is the HARP design choice, row 1 the ablated baseline.
		if v, err := strconv.ParseFloat(table.Cell(0, 1), 64); err == nil {
			metrics[a.name+"_harp"] = v
		}
		if v, err := strconv.ParseFloat(table.Cell(1, 1), 64); err == nil {
			metrics[a.name+"_baseline"] = v
		}
	}
	return metrics, nil
}
