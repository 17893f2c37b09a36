package main

import (
	"fmt"
	"math"
)

// metricDecl declares one metric: its unit, which way is better and how far
// it may worsen before -compare (and the driver, for endToEnd) calls it a
// regression.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline's median; 0 = any worsening counts
	slack  float64 // absolute allowance in the metric's own unit, on top of bound
	only   []string
}

func (d metricDecl) appliesTo(workload string) bool {
	if d.only == nil {
		return true
	}
	for _, w := range d.only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the metrics every workload reports with tracing off; they
// are BENCHMARK.json's end_to_end list. The timing bounds are what the
// reference host can resolve: between ten runs of one workload the medians
// spread (first to third quartile) by 3 to 15 % of their median, so a
// tighter bound than 25 % would call noise a regression (README, "Bounds").
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.05},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower", bound: 0.05},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.10},
}

var (
	cosimWorkloads = []string{"ctrl_scale", "testbed_lossy"}
	dataWorkloads  = []string{"mac_dense", "testbed_lossy"}
)

// workloadMetrics are the end-to-end metrics that cannot be in endToEnd:
// all but the first exist on some workloads only. The vt_* ones are
// simulated results: they repeat exactly for a seed, and
// guard against "faster by simulating less" or packing worse. The driver's
// contract wants every end_to_end metric from every workload, so these
// travel in BENCHMARK.json's per_layer list (0 where they do not apply);
// -compare applies their bounds all the same.
var workloadMetrics = []metricDecl{
	// mac_dense allocates about five objects an op (the MAC's steady state
	// allocates nothing), too few for a relative bound to hold between
	// seeds; hence the absolute slack, and its place in this list.
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05, slack: 2},
	{name: "deploy_s_p50", unit: "s", better: "lower", bound: 0.25, only: []string{"ctrl_scale"}},
	{name: "vt_commit_slots_p50", unit: "slots", better: "lower", bound: 0.01, only: cosimWorkloads},
	{name: "vt_msgs_per_adjust", unit: "msgs", better: "lower", bound: 0.01, only: []string{"ctrl_scale", "testbed_lossy", "plan_sweep"}},
	{name: "vt_delivery_ratio", unit: "share", better: "higher", bound: 0.01, only: dataWorkloads},
	{name: "vt_latency_slots_p50", unit: "slots", better: "lower", bound: 0.01, only: dataWorkloads},
	{name: "vt_frame_slots_used", unit: "slots", better: "lower", bound: 0.01, only: []string{"plan_sweep"}},
}

// failShare is failed ops over attempted ops. It is 0 on every workload
// today, which the driver's contract does not allow in a metric list; the
// result line carries it as failed/attempted, and -compare treats any rise
// as a regression.
var failShare = metricDecl{name: "fail_share", unit: "share", better: "lower"}

// perLayer are the single-layer metrics of a traced run, in the order the
// report prints them. A layer a workload does not run reports 0.
var perLayer = []metricDecl{
	{name: "topology.generate_ms", unit: "ms", better: "lower"},
	{name: "traffic.compute_ms", unit: "ms", better: "lower"},

	{name: "packing.strip_calls", unit: "count", better: "lower"},
	{name: "packing.strip_us_p50", unit: "us", better: "lower"},
	{name: "packing.strip_rects_mean", unit: "count", better: "lower"},
	{name: "packing.strip_waste_share", unit: "share", better: "lower"},

	{name: "core.new_plan_ms_p50", unit: "ms", better: "lower"},
	{name: "core.build_schedule_ms_p50", unit: "ms", better: "lower"},
	{name: "core.validate_ms_p50", unit: "ms", better: "lower"},
	{name: "core.set_link_demand_us_p50", unit: "us", better: "lower"},
	{name: "core.set_link_demand_us_tail", unit: "us", better: "lower"},
	{name: "core.escalated_share", unit: "share", better: "lower"},
	{name: "core.rejected_share", unit: "share", better: "lower"},

	{name: "coap.append_ns_p50", unit: "ns", better: "lower"},
	{name: "coap.decode_ns_p50", unit: "ns", better: "lower"},
	{name: "coap.allocs_per_roundtrip", unit: "count", better: "lower"},
	{name: "coap.msg_bytes_mean", unit: "bytes", better: "lower"},

	{name: "vclock.dispatched", unit: "count", better: "lower"},
	{name: "vclock.pending_peak", unit: "count", better: "lower"},
	{name: "vclock.ns_per_event_1shard", unit: "ns", better: "lower"},
	{name: "vclock.ns_per_event_autoshards", unit: "ns", better: "lower"},

	{name: "transport.send_calls", unit: "count", better: "lower"},
	{name: "transport.send_ns_p50", unit: "ns", better: "lower"},
	{name: "transport.delivered", unit: "count", better: "higher"},
	{name: "transport.retransmissions", unit: "count", better: "lower"},
	{name: "transport.dup_suppressed", unit: "count", better: "lower"},
	{name: "transport.dropped", unit: "count", better: "lower"},
	{name: "transport.giveups", unit: "count", better: "lower"},
	{name: "transport.useful_share", unit: "share", better: "higher"},
	{name: "transport.run_self_ms", unit: "ms", better: "lower"},

	{name: "agent.deploy_ms", unit: "ms", better: "lower"},
	{name: "agent.start_ms", unit: "ms", better: "lower"},
	{name: "agent.handle_calls", unit: "count", better: "lower"},
	{name: "agent.handle_ns_p50", unit: "ns", better: "lower"},
	{name: "agent.handle_ns_tail", unit: "ns", better: "lower"},
	{name: "agent.handle_self_ms", unit: "ms", better: "lower"},
	{name: "agent.validate_ms_p50", unit: "ms", better: "lower"},
	{name: "agent.build_schedule_ms_p50", unit: "ms", better: "lower"},
	{name: "agent.rejections", unit: "count", better: "lower"},
	{name: "agent.keepalives", unit: "count", better: "higher"},
	{name: "agent.bytes_per_node", unit: "bytes", better: "lower"},

	{name: "sim.new_ms", unit: "ms", better: "lower"},
	{name: "sim.set_schedule_ms_p50", unit: "ms", better: "lower"},
	{name: "sim.ns_per_slot", unit: "ns", better: "lower"},
	{name: "sim.ns_per_executed_slot", unit: "ns", better: "lower"},
	{name: "sim.executed_share", unit: "share", better: "lower"},
	{name: "sim.records", unit: "count", better: "higher"},
	{name: "sim.bytes_per_node", unit: "bytes", better: "lower"},

	{name: "cosim.new_ms_p50", unit: "ms", better: "lower"},
	{name: "cosim.run_ns_per_slot", unit: "ns", better: "lower"},
	{name: "cosim.self_ms", unit: "ms", better: "lower"},

	{name: "obs.trace_on_ratio", unit: "ratio", better: "lower"},
	{name: "obs.events_per_op", unit: "count", better: "lower"},
	{name: "obs.snapshot_ms", unit: "ms", better: "lower"},

	{name: "harness.samples", unit: "count", better: "higher"},
	{name: "harness.op_ms_tail", unit: "ms", better: "lower"},
	{name: "harness.tail_pct", unit: "%", better: "higher"},
	{name: "harness.trace_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "harness.spans", unit: "count", better: "lower"},
	{name: "harness.fidelity_ok", unit: "count", better: "higher"},
}

// timedDecls are the metrics a timed run prints and -compare judges.
func timedDecls() []metricDecl {
	return append(append([]metricDecl{failShare}, endToEnd...), workloadMetrics...)
}

// tracedDecls are BENCHMARK.json's per_layer list: what the result line of
// a traced run carries.
func tracedDecls() []metricDecl {
	return append(append([]metricDecl{}, workloadMetrics...), perLayer...)
}

// metricValue is one reported number. Samples is how many timing samples
// a median or percentile was taken over (0 for counts and ratios).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one run reports.
type result struct {
	Workload   string                 `json:"workload"`
	Unit       string                 `json:"work_unit"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Reps       int                    `json:"reps"`
	PinnedReps int                    `json:"pinned_reps"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Correct    bool                   `json:"correct"`
	Digest     string                 `json:"vt_digest"`
	Notes      []string               `json:"notes,omitempty"`
	Info       []string               `json:"info,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	// OpMS is the distribution of the op walls behind op_ms_p50.
	OpMS map[string]float64 `json:"op_ms"`
}

// report folds the run's samples into the declared metrics: the end-to-end
// ones always, the per-layer ones for a traced run.
func (r *run) report() result {
	name := r.w.name()
	res := result{
		Workload: name, Unit: r.w.unit(), Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: r.cfg.traced,
		Reps: r.reps, PinnedReps: r.w.minReps(), Attempted: r.attempted, Failed: r.failed,
		Digest: fmt.Sprintf("%016x", r.dig.Sum64()), Notes: r.notes,
		Metrics: make(map[string]metricValue),
	}
	res.OpMS = make(map[string]float64)
	for _, q := range []int{0, 10, 25, 50, 75, 90, 100} {
		res.OpMS[fmt.Sprintf("p%d", q)] = quantile(r.meas.opMS, float64(q)/100)
	}
	vals := r.endToEndValues()
	if r.cfg.traced {
		for k, v := range r.layerValues() {
			vals[k] = v
		}
	}
	decls := timedDecls()
	if r.cfg.traced {
		decls = append(decls, perLayer...)
	}
	finite := true
	for _, d := range decls {
		v, ok := vals[d.name]
		if !ok || !(d.appliesTo(name) || r.cfg.traced) {
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			finite = false
			v.Value = 0
		}
		v.Unit = d.unit
		res.Metrics[d.name] = v
	}
	res.Info = r.info
	res.Correct = r.failed == 0 && r.attempted > 0 && finite &&
		(!r.cfg.traced || (r.fidelity.checked > 0 && r.fidelity.bad == 0))
	return res
}

func (r *run) endToEndValues() map[string]metricValue {
	s := &r.meas
	ops := float64(len(s.opMS))
	return map[string]metricValue{
		"setup_s":              {Value: median(r.setupS), Samples: len(r.setupS)},
		"work_per_s":           {Value: median(s.rate), Samples: len(s.rate)},
		"op_ms_p50":            {Value: median(s.opMS), Samples: len(s.opMS)},
		"alloc_kb_per_op":      {Value: ratio(float64(s.allocB)/1024, ops)},
		"allocs_per_op":        {Value: ratio(float64(s.allocN), ops)},
		"live_heap_mb":         {Value: median(r.liveMB), Samples: len(r.liveMB)},
		"deploy_s_p50":         {Value: median(s.deployS), Samples: len(s.deployS)},
		"fail_share":           {Value: ratio(float64(r.failed), float64(r.attempted))},
		"vt_commit_slots_p50":  {Value: median(r.vt.commitSlots)},
		"vt_msgs_per_adjust":   {Value: mean(r.vt.adjustMsgs)},
		"vt_delivery_ratio":    {Value: ratio(float64(r.vt.delivered), float64(r.vt.released))},
		"vt_latency_slots_p50": {Value: histMedian(r.vt.latency)},
		"vt_frame_slots_used":  {Value: mean(r.vt.frameSlots)},
	}
}

// ratio is num/den, or 0 when the layer that would fill den did not run.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerValues derives the per-layer metrics from the span log, the
// counters tallied from the layers' public API and the probes.
func (r *run) layerValues() map[string]metricValue {
	agg := r.rec.aggregate()
	get := func(name string) *spanStat {
		if st := agg[name]; st != nil {
			return st
		}
		return &spanStat{}
	}
	inst := math.Max(1, float64(r.instances))
	v := make(map[string]metricValue)
	p50 := func(metric, spanName string, div float64) {
		st := get(spanName)
		v[metric] = metricValue{Value: median(st.durs) / div, Samples: st.calls}
	}
	perInstance := func(metric string, ns float64) { v[metric] = metricValue{Value: ns / 1e6 / inst} }
	share := func(metric string, num, den float64) { v[metric] = metricValue{Value: ratio(num, den)} }
	for _, d := range perLayer {
		v[d.name] = metricValue{Value: r.layer[d.name]} // tallied counters and probe results; 0 if the layer did not run
	}

	p50("topology.generate_ms", spanGenerate, 1e6)
	p50("traffic.compute_ms", spanCompute, 1e6)
	p50("core.new_plan_ms_p50", spanNewPlan, 1e6)
	p50("core.build_schedule_ms_p50", spanPlanBuild, 1e6)
	p50("core.validate_ms_p50", spanPlanCheck, 1e6)
	p50("core.set_link_demand_us_p50", spanSetDemand, 1e3)
	_, t := tail(get(spanSetDemand).durs)
	v["core.set_link_demand_us_tail"] = metricValue{Value: t / 1e3, Samples: get(spanSetDemand).calls}
	share("core.escalated_share", r.layer["core.escalated"], r.layer["core.adjustments"])
	share("core.rejected_share", r.layer["core.rejected"], r.layer["core.adjustments"])

	v["transport.send_calls"] = metricValue{Value: float64(get(spanSend).calls)}
	p50("transport.send_ns_p50", spanSend, 1)
	share("transport.useful_share", r.layer["transport.delivered"],
		float64(r.probes.sentApp)+r.layer["transport.retransmissions"])
	perInstance("transport.run_self_ms", get(spanBusRun).self)

	p50("agent.deploy_ms", spanAgentDeploy, 1e6)
	p50("agent.start_ms", spanAgentStart, 1e6)
	v["agent.handle_calls"] = metricValue{Value: float64(get(spanHandle).calls)}
	p50("agent.handle_ns_p50", spanHandle, 1)
	_, t = tail(get(spanHandle).durs)
	v["agent.handle_ns_tail"] = metricValue{Value: t, Samples: get(spanHandle).calls}
	perInstance("agent.handle_self_ms", get(spanHandle).self)
	p50("agent.validate_ms_p50", spanValidate, 1e6)
	p50("agent.build_schedule_ms_p50", spanFleetBuild, 1e6)

	p50("sim.new_ms", spanSimNew, 1e6)
	p50("sim.set_schedule_ms_p50", spanSetSchedule, 1e6)
	share("sim.ns_per_slot", get(spanSimRun).self, r.layer["sim.span_slots"])
	share("sim.ns_per_executed_slot", get(spanSimRun).self, r.layer["sim.span_executed"])
	share("sim.executed_share", r.layer["sim.executed"], r.layer["sim.slots"])

	v["cosim.new_ms_p50"] = metricValue{Value: median(r.cosimNewMS), Samples: len(r.cosimNewMS)}
	share("cosim.run_ns_per_slot", float64(r.cosimRunNS), float64(r.cosimSlots))
	composeMS := r.composeMS()
	if len(r.cosimNewMS) > 0 && len(composeMS) > 0 {
		v["cosim.self_ms"] = metricValue{Value: median(r.cosimNewMS) - median(composeMS), Samples: len(composeMS)}
		r.info = append(r.info, fmt.Sprintf("deploy: the composed phases sum to %.4g ms (p50 of %d), cosim.New takes %.4g ms (p50 of %d)",
			median(composeMS), len(composeMS), median(r.cosimNewMS), len(r.cosimNewMS)))
	}
	if len(r.trc.opMS) > 0 && len(r.meas.opMS) > 0 {
		r.info = append(r.info, fmt.Sprintf("op: spanned %.4g ms (p50 of %d), unspanned twin %.4g ms (p50 of %d)",
			median(r.trc.opMS), len(r.trc.opMS), median(r.meas.opMS), len(r.meas.opMS)))
	}
	if r.rec.dropped > 0 {
		r.info = append(r.info, fmt.Sprintf("span log full: %d spans dropped, spanned pass stopped after %d instances", r.rec.dropped, r.instances))
	}

	v["obs.snapshot_ms"] = metricValue{Value: median(r.snapshotMS), Samples: len(r.snapshotMS)}

	v["harness.samples"] = metricValue{Value: float64(len(r.meas.opMS))}
	pct, t := tail(r.meas.opMS)
	v["harness.op_ms_tail"] = metricValue{Value: t, Samples: len(r.meas.opMS)}
	v["harness.tail_pct"] = metricValue{Value: pct}
	share("harness.trace_overhead_ratio", median(r.trc.opMS), median(r.meas.opMS))
	v["harness.spans"] = metricValue{Value: float64(len(r.rec.spans))}
	if r.fidelity.checked > 0 && r.fidelity.bad == 0 {
		v["harness.fidelity_ok"] = metricValue{Value: 1}
	}
	return v
}

// composeMS returns, per composed instance, the summed wall of the phases
// compose is made of (its direct child spans, heap probes aside).
func (r *run) composeMS() []float64 {
	sums := make(map[int32]float64)
	spans := r.rec.spans
	for _, s := range spans {
		if s.end == 0 || s.parent < 0 || spans[s.parent].name != spanCompose || s.name == spanProbe {
			continue
		}
		sums[s.parent] += float64(s.end-s.start) / 1e6
	}
	out := make([]float64, 0, len(sums))
	for _, ms := range sums {
		out = append(out, ms)
	}
	return out
}
