// Command harpsim runs one simulated network scenario: it builds (or
// loads) a topology, runs the chosen scheduler, simulates the schedule for
// a number of slotframes, and prints schedule quality and latency metrics.
//
// Examples:
//
//	harpsim -topology testbed50 -scheduler harp -slotframes 100
//	harpsim -nodes 50 -layers 5 -scheduler msf -rate 3 -channels 8
//	harpsim -topology-file net.json -scheduler ldsf -seed 7
//	harpsim -topology fig1 -cosim -trace trace.jsonl  # record a protocol trace
//	harpsim -topology fig1 -cosim -metrics run.prom  # final Prometheus exposition
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/schedulers"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harpsim:", err)
		os.Exit(1)
	}
}

func pickScheduler(name string) (schedulers.Scheduler, error) {
	for _, s := range append(schedulers.All(), schedulers.ALICE{}) {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}

func pickTopology(name, file string, nodes, layers, fanout int, rng *rand.Rand) (*topology.Tree, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var tree topology.Tree
		if err := json.Unmarshal(data, &tree); err != nil {
			return nil, err
		}
		return &tree, nil
	}
	switch name {
	case "fig1":
		return topology.Fig1(), nil
	case "testbed50":
		return topology.Testbed50(), nil
	case "deep81":
		return topology.Deep81(), nil
	case "":
		return topology.Generate(topology.GenSpec{Nodes: nodes, Layers: layers, MaxChildren: fanout}, rng)
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

// run is the testable entry point: it parses args, runs the scenario and
// writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("harpsim", flag.ContinueOnError)
	var (
		topoName   = fs.String("topology", "", "canned topology: fig1, testbed50, deep81 (overrides -nodes/-layers)")
		topoFile   = fs.String("topology-file", "", "JSON topology file (see topogen)")
		nodes      = fs.Int("nodes", 50, "random topology size")
		layers     = fs.Int("layers", 5, "random topology depth")
		fanout     = fs.Int("fanout", 3, "random topology fan-out cap (0 = unlimited)")
		schedName  = fs.String("scheduler", "harp", "scheduler: harp, random, msf, ldsf, alice")
		rate       = fs.Float64("rate", 1, "task rate in packets/slotframe")
		perLink    = fs.Bool("per-link", false, "per-link demand (no convergecast accumulation) instead of echo tasks")
		slots      = fs.Int("slots", 199, "slotframe length")
		dataSlots  = fs.Int("data-slots", 190, "data sub-frame length")
		channels   = fs.Int("channels", 16, "channel count")
		slotframes = fs.Int("slotframes", 50, "slotframes to simulate")
		pdr        = fs.Float64("pdr", 1, "per-transmission delivery ratio")
		seed       = fs.Int64("seed", 1, "random seed")
		cosimFlag  = fs.Bool("cosim", false, "co-simulate the distributed HARP protocol with the MAC on one shared clock: agents build the schedule over real CoAP exchanges, and a mid-run traffic change measures the disruption window (ignores -scheduler)")
		tracePath  = fs.String("trace", "", "with -cosim: record the protocol event trace to this JSONL path (analyse with harptrace)")
		metricsOut = fs.String("metrics", "", "with -cosim: write the run's final metrics as a Prometheus text exposition to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	tree, err := pickTopology(*topoName, *topoFile, *nodes, *layers, *fanout, rng)
	if err != nil {
		return err
	}
	frame := schedule.Slotframe{
		Slots: *slots, Channels: *channels, DataSlots: *dataSlots,
		SlotDuration: 10 * time.Millisecond,
	}

	var demand *traffic.Demand
	tasks, err := traffic.UniformEcho(tree, *rate)
	if err != nil {
		return err
	}
	if *perLink {
		demand, err = traffic.PerLink(tree, *rate)
	} else {
		demand, err = traffic.Compute(tree, tasks)
	}
	if err != nil {
		return err
	}

	if *cosimFlag {
		return runCoSim(stdout, tree, frame, tasks, demand, *slotframes, *pdr, *seed, *tracePath, *metricsOut)
	}
	if *tracePath != "" {
		return fmt.Errorf("-trace requires -cosim (only the protocol co-simulation is traced)")
	}
	if *metricsOut != "" {
		return fmt.Errorf("-metrics requires -cosim (only the protocol co-simulation keeps a metrics registry)")
	}

	sched, err := pickScheduler(*schedName)
	if err != nil {
		return err
	}
	s, err := sched.Build(tree, frame, demand, rng)
	if err != nil {
		return err
	}
	collisions, err := schedulers.AnalyzeCollisions(tree, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "topology: %d nodes, %d layers; scheduler: %s; demand: %d cells/slotframe\n",
		tree.Len(), tree.MaxLayer(), sched.Name(), demand.TotalCells())
	fmt.Fprintf(stdout, "schedule: %d scheduled transmissions, collision probability %.4f (%d cell, %d half-duplex)\n",
		collisions.TotalTransmissions, collisions.Probability(),
		collisions.CellCollisions, collisions.HalfDuplexCollisions)

	simulator, err := sim.New(sim.Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: *pdr, Seed: *seed})
	if err != nil {
		return err
	}
	simulator.SetSchedule(s)
	if err := simulator.RunSlotframes(*slotframes); err != nil {
		return err
	}

	slotSec := frame.SlotDuration.Seconds()
	var latencies []float64
	delivered, generated := 0, 0
	for _, r := range simulator.Records() {
		generated++
		if r.Delivered {
			delivered++
			latencies = append(latencies, float64(r.Latency())*slotSec)
		}
	}
	sum := stats.Summarize(latencies)
	fmt.Fprintf(stdout, "simulated %d slotframes (%.1fs): %d/%d packets delivered\n",
		*slotframes, float64(*slotframes*frame.Slots)*slotSec, delivered, generated)
	fmt.Fprintf(stdout, "e2e latency: mean %.3fs, p50 %.3fs, p95 %.3fs, max %.3fs\n",
		sum.Mean, sum.P50, sum.P95, sum.Max)
	fmt.Fprintf(stdout, "radio events: %d collisions, %d receiver misses, %d channel losses, %d half-duplex deferrals, %d drops\n",
		simulator.Collisions, simulator.ReceiverMisses, simulator.LossFailures,
		simulator.HalfDuplexBlocks, simulator.Drops)
	return nil
}

// runCoSim runs the distributed HARP protocol and the MAC on one shared
// virtual clock: the fleet's static phase builds the schedule over real
// CoAP exchanges, data packets flow over it, and halfway through the run
// the deepest node's uplink demand is raised — the printed disruption
// window is the measured gap between the traffic change and the slot the
// protocol commits the adjusted schedule.
func runCoSim(stdout io.Writer, tree *topology.Tree, frame schedule.Slotframe, tasks *traffic.Set,
	demand *traffic.Demand, slotframes int, pdr float64, seed int64, tracePath, metricsOut string) error {
	cs, err := cosim.New(cosim.Config{
		Tree: tree, Frame: frame, Tasks: tasks, Demand: demand,
		PDR: pdr, Seed: seed, Trace: tracePath != "",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "topology: %d nodes, %d layers; distributed HARP fleet on a shared virtual clock\n",
		tree.Len(), tree.MaxLayer())
	fmt.Fprintf(stdout, "static phase: %d protocol messages, converged at t=%.1f slots\n",
		cs.Bus.Delivered(), cs.Clock.Now())

	// Pick the deepest node (lowest ID on ties) and raise its uplink
	// demand mid-run, exercising the full escalation path.
	var deepest topology.NodeID
	depth := -1
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		if l, err := tree.LinkLayer(id); err == nil && l > depth {
			deepest, depth = id, l
		}
	}
	link := topology.Link{Child: deepest, Direction: topology.Uplink}
	target := demand.Cells(link) + 2
	cs.At(slotframes/2*frame.Slots, func(c *cosim.CoSim) {
		if err := c.Adjust(func(f *agent.Fleet) error {
			return f.RequestLinkDemand(link, target)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "harpsim: adjustment:", err)
		}
	})

	if err := cs.RunSlotframes(slotframes); err != nil {
		return err
	}

	slotSec := frame.SlotDuration.Seconds()
	var latencies []float64
	delivered, generated := 0, 0
	for _, r := range cs.Sim.Records() {
		generated++
		if r.Delivered {
			delivered++
			latencies = append(latencies, float64(r.Latency())*slotSec)
		}
	}
	sum := stats.Summarize(latencies)
	fmt.Fprintf(stdout, "simulated %d slotframes (%.1fs): %d/%d packets delivered\n",
		slotframes, float64(slotframes*frame.Slots)*slotSec, delivered, generated)
	fmt.Fprintf(stdout, "e2e latency: mean %.3fs, p50 %.3fs, p95 %.3fs, max %.3fs\n",
		sum.Mean, sum.P50, sum.P95, sum.Max)
	for _, cm := range cs.Commits {
		fmt.Fprintf(stdout, "adjustment: node %d uplink -> %d cells; %d msgs (%d requests, %d sched), committed at slot %d, disruption %.2fs (%d slotframes)\n",
			deepest, target, cm.Messages, cm.Requests, cm.ScheduleMessages,
			cm.CommitSlot, cm.DisruptionSec(frame), cm.Slotframes(frame))
	}
	if !cs.Quiesced() {
		fmt.Fprintln(stdout, "adjustment still in flight at run end")
	}
	health := obs.EvalHealth(cs.Bus.Metrics(), cs.StaticConverged && cs.Quiesced(), 0,
		obs.DefaultBudgets(frame.Slots))
	if err := health.WriteText(stdout); err != nil {
		return err
	}
	if tracePath != "" {
		events := cs.Tracer.Events()
		if err := obs.WriteJSONLFile(tracePath, events); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "protocol trace written to %s (%d events)\n", tracePath, len(events))
	}
	if metricsOut != "" {
		if err := writeMetrics(metricsOut, cs.Bus.Metrics().Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "final metrics written to %s\n", metricsOut)
	}
	return nil
}

// writeMetrics writes snap's Prometheus text exposition to path.
func writeMetrics(path string, snap obs.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(f, snap); err != nil {
		f.Close() //harplint:allow errcheck the write error takes precedence over close-on-error
		return err
	}
	return f.Close()
}
