package experiments

import (
	"fmt"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/invariant"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// ChaosExpConfig parameterises the self-healing study: a generated fleet
// runs the full distributed protocol with the failure detector enabled,
// then a scripted crash storm (a fraction of the fleet crashes silently,
// half of it for good) plus link flaps hits it mid-run. The detector has
// to discover every outage from missing keepalives, re-home the orphaned
// subtrees and readmit the comebacks, and the run reports detection
// latency, re-home time, schedule availability and — the headline — how
// many orphans remain after the heal (must be zero).
type ChaosExpConfig struct {
	// Nodes/Layers/MaxChildren shape the generated tree (as in the scale
	// study).
	Nodes       int
	Layers      int
	MaxChildren int
	// ActiveTasks end-to-end echo tasks spread over the fleet; the rest of
	// the tree carries zero demand, as a mostly-idle deployment is.
	ActiveTasks int
	// CrashFraction of the non-gateway population crashes during the
	// storm; PermanentFraction of those victims never restarts.
	CrashFraction     float64
	PermanentFraction float64
	// LinkFlaps parent links go down for one slotframe each during the
	// storm window — noise the detector must ride out without declaring
	// anyone dead.
	LinkFlaps int
	// StormSlotframes is the observed storm window; DrainSlotframes is the
	// post-storm run-out, which must outlast the CON give-up backoff of
	// exchanges toward permanent victims (up to ~93 slotframes).
	StormSlotframes int
	DrainSlotframes int
	Seed            int64
	// Trace enables protocol tracing; the causal event trace lands in
	// ChaosExpResult.Trace.
	Trace bool
}

// DefaultChaosExp returns the committed 1000-node scenario: 12% of the
// fleet crashes (half permanently) while 32 echo tasks keep demand on the
// tree.
func DefaultChaosExp() ChaosExpConfig {
	return ChaosExpConfig{
		Nodes:             1_000,
		Layers:            8,
		MaxChildren:       8,
		ActiveTasks:       32,
		CrashFraction:     0.12,
		PermanentFraction: 0.5,
		LinkFlaps:         5,
		StormSlotframes:   25,
		DrainSlotframes:   100,
		Seed:              23,
	}
}

// ChaosExpResult is the storm's outcome. Every field is a virtual-time
// quantity: seed-deterministic at any worker or shard count.
type ChaosExpResult struct {
	Nodes  int
	Shards int
	cosim.ChaosReport
	// Keepalives is the detector's total background probe count — the
	// price of the failure detector in control messages.
	Keepalives int
	Table      *stats.Table
	// DetectAdopt is the suspicion→adoption latency distribution in
	// milli-slots, one observation per re-homed orphan.
	DetectAdopt obs.Hist
	// Health is the end-of-run SLO verdict against the default budgets.
	Health *obs.HealthReport
	// Trace is the causal protocol event trace (with ChaosExpConfig.Trace
	// set; nil otherwise).
	Trace []obs.Event
	// Metrics is the run's final metrics registry snapshot.
	Metrics obs.Snapshot
}

// ChaosExp runs the study.
func ChaosExp(cfg ChaosExpConfig) (ChaosExpResult, error) {
	rng := vclock.NewStream(vclock.StreamScale, cfg.Seed*1_000_003+int64(cfg.Nodes))
	tree, err := topology.GenerateScale(topology.GenSpec{
		Nodes: cfg.Nodes, Layers: cfg.Layers, MaxChildren: cfg.MaxChildren,
	}, rng)
	if err != nil {
		return ChaosExpResult{}, err
	}
	frame := PaperSlotframe(16)
	frame.Slots, frame.DataSlots = 997, 960

	// Sparse demand, as in the scale study: ActiveTasks echo tasks picked
	// uniformly from the non-gateway nodes.
	nodes := tree.Nodes()
	tasks := traffic.NewSet()
	seen := make(map[topology.NodeID]bool)
	for id := traffic.TaskID(0); len(seen) < cfg.ActiveTasks && len(seen) < len(nodes)-1; id++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		if seen[src] {
			continue
		}
		seen[src] = true
		if err := tasks.Add(traffic.Task{ID: id, Source: src, Actuator: src, Rate: 1}); err != nil {
			return ChaosExpResult{}, err
		}
	}

	shards := cosim.AutoShards(tree)
	cs, err := cosim.New(cosim.Config{
		Tree:     tree,
		Frame:    frame,
		Tasks:    tasks,
		PDR:      1,
		Seed:     cfg.Seed,
		RootGap:  2,
		Reliable: true,
		Shards:   shards,
		Trace:    cfg.Trace,
	})
	if err != nil {
		return ChaosExpResult{}, err
	}
	sf := float64(frame.Slots)
	det, err := cs.EnableSelfHealing(agent.DetectorConfig{
		Interval:     sf,
		SuspectAfter: 2 * sf,
		DeadAfter:    4 * sf,
		AbortAfter:   80 * sf,
		Seed:         cfg.Seed,
	}, tasks)
	if err != nil {
		return ChaosExpResult{}, err
	}
	ch, err := cosim.NewChaos(cs, det, cosim.ChaosConfig{
		Seed:              cfg.Seed,
		CrashFraction:     cfg.CrashFraction,
		PermanentFraction: cfg.PermanentFraction,
		StartSlot:         frame.Slots,
		SpreadSlots:       2 * frame.Slots,
		DowntimeSlots:     7 * frame.Slots,
		LinkFlaps:         cfg.LinkFlaps,
		FlapSlots:         frame.Slots,
	})
	if err != nil {
		return ChaosExpResult{}, err
	}
	if err := ch.Run(cfg.StormSlotframes); err != nil {
		return ChaosExpResult{}, err
	}
	if err := det.Err(); err != nil {
		return ChaosExpResult{}, fmt.Errorf("detector: %w", err)
	}
	// Snapshot the probe count before the commit below: Adjust resets the
	// transport counters at its trigger.
	keepalives := cs.Bus.Metrics().Counter(obs.Key(obs.MetricKeepalives))
	// Drain past the give-up backoff, then commit the healed schedule with
	// a no-op adjustment.
	if err := cs.Adjust(func(*agent.Fleet) error { return nil }); err != nil {
		return ChaosExpResult{}, err
	}
	if err := cs.RunSlotframes(cfg.DrainSlotframes); err != nil {
		return ChaosExpResult{}, err
	}
	if !cs.Quiesced() {
		return ChaosExpResult{}, fmt.Errorf("chaos: storm did not quiesce after %d drain slotframes", cfg.DrainSlotframes)
	}
	if err := invariant.CheckFleet(cs.Fleet, nil); err != nil {
		return ChaosExpResult{}, fmt.Errorf("chaos: healed fleet invalid: %w", err)
	}

	res := ChaosExpResult{
		Nodes:       cfg.Nodes,
		Shards:      shards,
		ChaosReport: ch.Report(),
		Keepalives:  int(keepalives),
		Trace:       cs.Tracer.Events(),
	}
	reg := cs.Bus.Metrics()
	if h, ok := reg.DistStat(obs.Key(obs.MetricDetectAdoptMs)); ok {
		res.DetectAdopt = h
	}
	health := obs.EvalHealth(reg, cs.Quiesced(), res.OrphansRemaining, obs.DefaultBudgets(frame.Slots))
	res.Health = &health
	res.Metrics = reg.Snapshot()
	if res.OrphansRemaining != 0 {
		return ChaosExpResult{}, fmt.Errorf("chaos: %d orphans remain after the heal", res.OrphansRemaining)
	}
	table := stats.NewTable(
		fmt.Sprintf("Self-healing under chaos — %d nodes, %d shards", res.Nodes, res.Shards),
		"victims", "permanent", "deaths", "adoptions", "readmits",
		"detect p50 (sf)", "detect max (sf)", "rehome max (sf)", "availability", "orphans left")
	table.AddRow(res.Victims, res.PermanentVictims, res.Deaths, res.Adoptions,
		res.Readmissions, res.DetectP50Sf, res.DetectMaxSf, res.RehomeMaxSf,
		res.Availability, res.OrphansRemaining)
	res.Table = table
	return res, nil
}
