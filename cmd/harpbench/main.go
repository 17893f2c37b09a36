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
//	harpbench -json out.json  # also write a machine-readable bench report
//	harpbench -gate BENCH_harpbench.json  # fail on metric drift / wall regression vs a baseline
//	harpbench -trace t.jsonl  # record the fig10 co-simulation's protocol trace
//	harpbench -http :8080     # live read-only inspection endpoint while the bench runs
//	harpbench -cpuprofile p   # write a pprof CPU profile of the run
//	harpbench -memprofile p   # write a pprof heap profile at exit
//
// Output is the same rows/series the paper reports, as fixed-width text
// tables on stdout. With -json, a BENCH_harpbench.json-style report (per-
// experiment wall time, key metric values, host metadata) is written so the
// bench trajectory accumulates across commits; the schema is documented in
// DESIGN.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
const reportSchema = "harpbench/v1"

// report is the top-level -json document.
type report struct {
	Schema      string      `json:"schema"`
	Host        hostInfo    `json:"host"`
	Quick       bool        `json:"quick"`
	Workers     int         `json:"workers"`
	Experiments []expRecord `json:"experiments"`
	TotalSec    float64     `json:"total_sec"`
}

// hostInfo records where the numbers were measured.
type hostInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StartedAt is the wall-clock start of the run (RFC 3339, UTC).
	StartedAt string `json:"started_at"`
}

// expRecord is one experiment's wall time and headline metrics.
type expRecord struct {
	Name    string             `json:"name"`
	WallSec float64            `json:"wall_sec"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	only := flag.String("only", "", "run a single experiment (table1, fig7d, fig9, fig10, table2, fig11a, fig11b, fig12, churn, ablations, losssweep, scale, chaos)")
	scaleSizes := flag.String("scale-sizes", "", "comma-separated fleet sizes for the scale study (default 1000,10000,50000)")
	quick := flag.Bool("quick", false, "reduced repetitions for a fast pass")
	workers := flag.Int("workers", 0, "worker count for the parallel sweep engine (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "write a machine-readable bench report to this path")
	gatePath := flag.String("gate", "", "compare this run against a baseline bench report and fail on regression")
	gateWallTol := flag.Float64("gate-wall-tol", defaultGateWallTol, "gate: tolerated wall-time multiplier over the baseline")
	gateFormat := flag.String("gate-format", "text", "gate finding format: text or github (::error annotations)")
	tracePath := flag.String("trace", "", "record the fig10 co-simulation's protocol trace to this JSONL path")
	httpAddr := flag.String("http", "", "serve the live inspection endpoint (/healthz, /metrics, /series, /debug/pprof) on this address while the bench runs")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this path at exit")
	flag.Parse()

	parallel.SetWorkers(*workers)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harpbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "harpbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "harpbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			//harplint:allow errcheck
			_ = pprof.WriteHeapProfile(f)
		}()
	}

	runner := &runner{quick: *quick, trace: *tracePath}
	if *httpAddr != "" {
		ins := obs.NewInspector()
		addr, err := ins.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("live inspection endpoint on http://%s\n", addr)
		runner.inspect = ins
	}
	if *scaleSizes != "" {
		for _, s := range strings.Split(*scaleSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				fmt.Fprintf(os.Stderr, "harpbench: bad -scale-sizes entry %q\n", s)
				os.Exit(2)
			}
			runner.scaleSizes = append(runner.scaleSizes, n)
		}
	}
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
	rep := report{
		Schema: reportSchema,
		Host: hostInfo{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			StartedAt:  time.Now().UTC().Format(time.RFC3339),
		},
		Quick:   *quick,
		Workers: parallel.Workers(),
	}
	start := time.Now()
	ran := 0
	for _, e := range all {
		if *only != "" && e.name != *only {
			continue
		}
		ran++
		expStart := time.Now()
		metrics, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "harpbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		wall := time.Since(expStart)
		fmt.Printf("[%s completed in %v]\n\n", e.name, wall.Round(time.Millisecond))
		rep.Experiments = append(rep.Experiments, expRecord{
			Name:    e.name,
			WallSec: wall.Seconds(),
			Metrics: metrics,
		})
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "harpbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	rep.TotalSec = time.Since(start).Seconds()
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, rep); err != nil {
			fmt.Fprintf(os.Stderr, "harpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("bench report written to %s\n", *jsonPath)
	}
	if *gatePath != "" {
		// -only runs gate just the experiments that ran; full runs must
		// cover every baseline experiment.
		if !runGate(*gatePath, *gateFormat, rep, *gateWallTol, *only == "") {
			os.Exit(1)
		}
	}
}

// writeReport marshals the report with stable indentation so committed
// BENCH_*.json trajectories diff cleanly.
func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type runner struct {
	quick bool
	// trace is the -trace output path; when set, fig10's measured
	// co-simulation records its protocol trace there.
	trace string
	// scaleSizes overrides the scale study's fleet sizes (-scale-sizes).
	scaleSizes []int
	// inspect is the -http endpoint's snapshot sink (nil without -http);
	// the co-simulated experiments publish their telemetry into it.
	inspect *obs.Inspector
}

func (r *runner) table1() (map[string]float64, error) {
	t := experiments.TableIHandlers()
	fmt.Println(t)
	return map[string]float64{"handlers": float64(t.Len())}, nil
}

func (r *runner) fig7d() (map[string]float64, error) {
	res, err := experiments.Fig7d()
	if err != nil {
		return nil, err
	}
	fmt.Println(res.Table)
	fmt.Println(res.Map)
	fmt.Printf("static phase messages: %d interface, %d partition, %d schedule (total %d)\n",
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
	fmt.Println(res.Table)
	fmt.Printf("slotframe duration: %.2fs (the paper's latency bound)\n", res.SlotframeSec)
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
	mcfg.Inspect = r.inspect
	measured, err := experiments.Fig10(mcfg)
	if err != nil {
		return nil, err
	}
	if r.trace != "" {
		if err := obs.WriteJSONLFile(r.trace, measured.Trace); err != nil {
			return nil, err
		}
		fmt.Printf("protocol trace written to %s (%d events)\n\n", r.trace, len(measured.Trace))
	}
	fmt.Println("co-simulated (measured commit slots):")
	for _, e := range measured.Events {
		fmt.Printf("t=%.1fs: rate -> %.1f pkt/sf, %s, %d HARP msgs + %d sched msgs, reconfigured in %.2fs (%d slotframes)\n",
			e.AtSec, e.Rate, e.Case, e.Messages, e.SchedMsgs, e.DelaySec, e.Slotframes)
	}
	fmt.Println()
	fmt.Println(measured.Table)
	fmt.Printf("max latency (measured): %.2fs\n", measured.MaxLatencySec)
	if measured.Health != nil {
		if err := measured.Health.WriteText(os.Stdout); err != nil {
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
	// virtual-time quantities, so the gate holds them to strict equality.
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
	fmt.Println(res.Table)
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
	fmt.Println(res.Table)
	fmt.Printf("mean total cells per slotframe across the sweep: %.0f .. %.0f\n",
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
	fmt.Println(res.Table)
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
	fmt.Println(res.Table)
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
	fmt.Println(res.Table)
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
	cfg := experiments.DefaultLossSweep()
	cfg.Inspect = r.inspect
	res, err := experiments.LossSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Println(res.Table)
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
	// virtual-time exact, gated at strict equality.
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
	fmt.Println(res.Table)
	metrics := map[string]float64{}
	for _, p := range res.Points {
		key := fmt.Sprintf("scale_%d", p.Nodes)
		// static/adjust slots, commits and event counts are virtual-time
		// quantities: seed-deterministic at any worker or shard count. The
		// _per_sec and _bytes_per_node keys are host-dependent; the gate
		// compares them within a ratio band and the determinism CI strips
		// them.
		metrics[key+"_static_slots"] = p.StaticSlots
		metrics[key+"_adjust_slots"] = p.AdjustSlots
		metrics[key+"_commits"] = float64(p.Commits)
		metrics[key+"_events"] = float64(p.Events)
		metrics[key+"_shards"] = float64(p.Shards)
		metrics[key+"_events_per_sec"] = p.EventsPerSec
		metrics[key+"_bytes_per_node"] = p.BytesPerNode
	}
	return metrics, nil
}

func (r *runner) chaos() (map[string]float64, error) {
	cfg := experiments.DefaultChaosExp()
	cfg.Inspect = r.inspect
	res, err := experiments.ChaosExp(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Println(res.Table)
	if res.Health != nil {
		if err := res.Health.WriteText(os.Stdout); err != nil {
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
		fmt.Println(table)
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
