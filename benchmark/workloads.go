package main

// fullWorkloads are the five workloads at the sizes BENCHMARK.json measures.
// Input sizes are fixed; the time budget only decides how many reps beyond
// minReps a run fits. ROADMAP aim 3 explains the missing sixth: a crash
// storm (experiments.ChaosExp at 1000 nodes) passes for 2 of 8 seeds tried,
// so it is not a timing target yet.
func fullWorkloads() []workload {
	return []workload{
		ctrlScale{
			spec:      scaleSpec{nodes: 50_000, layers: 8, fanout: 8, tasks: 32},
			opsPerRep: 8, raisesPerOp: 4, settleFrames: 16, reps: 5,
		},
		keepaliveFleet{
			spec:   scaleSpec{nodes: 20_000, layers: 8, fanout: 8, tasks: 32},
			warmup: 5, opsPerRep: 25, reps: 2,
		},
		macDense{framesPerOp: 1000, opsPerRep: 25, reps: 2},
		planSweep{nodes: 81, layers: 10, opsPerRep: 100, reps: 2},
		testbedLossy{opsPerRep: 49, stepAt: 10, frames: 150, twinOps: 20, traceOps: 100, reps: 2},
	}
}

// toyWorkloads are the same five at sizes the smoke test runs in seconds.
func toyWorkloads() []workload {
	return []workload{
		ctrlScale{
			spec:      scaleSpec{nodes: 200, layers: 4, fanout: 6, tasks: 8},
			opsPerRep: 2, raisesPerOp: 2, settleFrames: 16, reps: 1,
		},
		keepaliveFleet{
			spec:   scaleSpec{nodes: 150, layers: 4, fanout: 6, tasks: 8},
			warmup: 2, opsPerRep: 3, reps: 1,
		},
		macDense{framesPerOp: 20, opsPerRep: 3, reps: 1},
		planSweep{nodes: 30, layers: 5, opsPerRep: 3, reps: 1},
		testbedLossy{opsPerRep: 2, stepAt: 10, frames: 150, twinOps: 2, traceOps: 1, reps: 1},
	}
}

func findWorkload(ws []workload, name string) workload {
	for _, w := range ws {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// workloadWhy is the one line BENCHMARK.json and the README give for each
// workload.
var workloadWhy = map[string]string{
	"ctrl_scale":      "50k-node deploy + committed adjustments: agent deploy and the O(N) commit path dominate, few events, MAC idle",
	"keepalive_fleet": "20k nodes of per-slotframe keepalives: per-event cost of vclock + transport + coap, agents and MAC near idle",
	"mac_dense":       "Testbed50 MAC alone, lossy, every slot busy: sim step/transmit is the whole cost, no control plane",
	"plan_sweep":      "centralized plan + 160 raise/release adjustments on random 81-node trees: packing + core only, no clock",
	"testbed_lossy":   "paper testbed scenario over a lossy CON/ACK control plane: every layer works, reliability paths exercised",
}
