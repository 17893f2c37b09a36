// Testbed50 runs HARP as a distributed system: fifty protocol agents
// execute the static partition allocation and a dynamic adjustment by
// exchanging CoAP messages (Table I of the paper) over the virtual-time
// bus, where each hop waits for the sender's next management cell. The
// resulting global schedule is then verified collision-free and simulated
// to produce the per-node latency profile of Fig. 9.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/stats"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

func main() {
	tree := topology.Testbed50()
	frame := schedule.Testbed()
	tasks, err := traffic.UniformEcho(tree, 1) // 2-second period per node
	if err != nil {
		log.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		log.Fatal(err)
	}
	// Provision one spare cell per link beyond the task demand, so channel
	// losses can be retransmitted without building unbounded backlog.
	cells := make(map[topology.Link]int)
	for _, l := range demand.Links() {
		cells[l] = demand.Cells(l) + 1
	}
	provisioned := traffic.FromCells(cells)

	bus, err := transport.NewBus(frame.Slots, 1)
	if err != nil {
		log.Fatal(err)
	}
	// No root gap here: the spare cells already consume most of the data
	// sub-frame's headroom (188 of 190 slots).
	fleet, err := agent.Deploy(tree, frame, provisioned, bus)
	if err != nil {
		log.Fatal(err)
	}

	fleet.Start()
	staticEnd, err := bus.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static partition allocation converged: %d messages in %.1f slotframes of network time\n",
		bus.Delivered(), staticEnd/float64(frame.Slots))

	if n := fleet.Rejections(); n > 0 {
		log.Fatalf("%d allocation rejections: demand does not fit the slotframe", n)
	}
	if err := fleet.Validate(); err != nil {
		log.Fatalf("distributed schedule invalid: %v", err)
	}
	fmt.Println("distributed schedule verified collision-free and half-duplex clean")

	// A runtime traffic change, requested by the affected node itself
	// (PUT /intf up the tree, per the paper's flowchart).
	bus.ResetCounters()
	if err := fleet.RequestLinkDemand(topology.Link{Child: 15, Direction: topology.Uplink}, 4); err != nil {
		log.Fatal(err)
	}
	adjustEnd, err := bus.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := fleet.Validate(); err != nil {
		log.Fatalf("schedule invalid after adjustment: %v", err)
	}
	fmt.Printf("node 15 uplink demand -> 4 cells: adjusted with %d messages in %.1f slotframes, still conflict-free\n\n",
		bus.Delivered(), (adjustEnd-staticEnd)/float64(frame.Slots))

	// Simulate the agents' schedule for five minutes of operation.
	sched, err := fleet.BuildSchedule()
	if err != nil {
		log.Fatal(err)
	}
	simulator, err := sim.New(sim.Config{Tree: tree, Frame: frame, Tasks: tasks, PDR: 0.99, MaxRetries: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	simulator.SetSchedule(sched)
	if err := simulator.RunSlotframes(int(5 * time.Minute / frame.Duration())); err != nil {
		log.Fatal(err)
	}

	latencies := simulator.LatenciesByTask()
	table := stats.NewTable("per-layer end-to-end latency (5 simulated minutes, PDR 0.99)",
		"layer", "nodes", "mean(s)", "p95(s)")
	slotSec := frame.SlotDuration.Seconds()
	for layer := 1; layer <= tree.MaxLayer(); layer++ {
		var all []float64
		nodes := 0
		for _, id := range tree.NodesAtDepth(layer) {
			nodes++
			for _, l := range latencies[traffic.TaskID(id)] {
				all = append(all, l*slotSec)
			}
		}
		sum := stats.Summarize(all)
		table.AddRow(layer, nodes, sum.Mean, sum.P95)
	}
	fmt.Println(table)
	fmt.Printf("slotframe is %.2fs — mean latency stays bounded by it at every layer (Fig. 9)\n",
		frame.Duration().Seconds())
}
