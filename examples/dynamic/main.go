// Dynamic reproduces the paper's Fig. 10 scenario end to end: the 50-node
// testbed network runs steadily at one packet per slotframe; the observed
// node's sampling rate is raised twice during the run. The first increase
// is absorbed by idle cells in the local partition; the second overflows it
// and triggers a multi-hop partition adjustment, visible as a latency spike
// that settles once the reconfigured schedule is installed.
//
// The run is a co-simulation: the distributed agents exchange real CoAP
// messages over management cells on the same virtual clock the MAC steps
// on, so the disruption window printed per event is the measured gap
// between the rate step and the slot the protocol committed the new
// schedule.
package main

import (
	"fmt"
	"log"

	"github.com/harpnet/harp/internal/experiments"
)

func main() {
	cfg := experiments.DefaultFig10()
	sfSec := experiments.TestbedSlotframe().Duration().Seconds()
	fmt.Printf("observing node %d: rate 1 -> %.1f (t=%.1fs) -> %.1f (t=%.1fs) pkt/slotframe — co-simulated (measured commit slots)\n\n",
		cfg.Node,
		cfg.Step1Rate, float64(cfg.Step1At)*sfSec,
		cfg.Step2Rate, float64(cfg.Step2At)*sfSec)

	res, err := experiments.Fig10(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range res.Events {
		fmt.Printf("t=%6.1fs  rate -> %.1f  handled as %-16s  %2d HARP msgs, %2d schedule msgs, settled in %.1fs",
			e.AtSec, e.Rate, e.Case, e.Messages, e.SchedMsgs, e.DelaySec)
		if e.Case != "uncommitted" {
			fmt.Printf(" (committed at slot %d)", e.CommitSlot)
		}
		fmt.Println()
	}
	fmt.Println()

	// A coarse character plot of the latency trace (x: time, y: latency).
	if len(res.Points) == 0 {
		log.Fatalf("node %d delivered no packets: nothing to plot", cfg.Node)
	}
	const width, height = 100, 14
	maxT := res.Points[len(res.Points)-1].X
	maxL := res.MaxLatencySec * 1.05
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = make([]byte, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for _, p := range res.Points {
		x := int(p.X / maxT * float64(width-1))
		y := int(p.Y / maxL * float64(height-1))
		grid[height-1-y][x] = '*'
	}
	fmt.Printf("end-to-end latency of node %d (max %.2fs, one slotframe = %.2fs):\n", cfg.Node, res.MaxLatencySec, sfSec)
	for _, row := range grid {
		fmt.Printf("|%s|\n", row)
	}
	fmt.Printf("0s%stime%s%.0fs\n", spaces(width/2-4), spaces(width/2-6), maxT)
}

func spaces(n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = ' '
	}
	return string(out)
}
