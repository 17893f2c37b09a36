// Package harp is a Go implementation of HARP — the hierarchical resource
// partitioning framework for dynamic industrial wireless networks (Wang,
// Zhang, Shen, Hu, Han; ICDCS 2022) — together with everything needed to
// operate and evaluate it: a tree topology model, periodic-task traffic,
// TDMA slotframes, baseline schedulers (random, MSF, LDSF, ALICE), the
// centralized APaS baseline, a slot-accurate network simulator, an
// RFC 7252 CoAP codec with the HARP message protocol, and distributed
// per-node agents that run the protocol over in-memory transports.
//
// The quickest entry point is Build, which runs HARP's static partition
// allocation for a topology and task set and returns a Network whose
// schedule is guaranteed collision-free; SetTaskRate then exercises the
// dynamic partition adjustment:
//
//	tree := harp.Fig1Topology()
//	tasks, _ := harp.UniformEcho(tree, 1)
//	nw, _ := harp.Build(tree, harp.TestbedSlotframe(), tasks)
//	sched, _ := nw.Schedule()
//	reports, _ := nw.SetTaskRate(8, 3) // triple node 8's sampling rate
//
// The deeper layers are exposed directly: core (partitioning engine),
// schedulers/apas (baselines), sim (simulator), agent/transport/coap/proto
// (the distributed protocol stack), and experiments (regeneration of every
// table and figure in the paper); see DESIGN.md for the map.
package harp

import (
	"fmt"

	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
)

// Re-exported topology types.
type (
	// NodeID identifies a network node; the gateway is GatewayID.
	NodeID = topology.NodeID
	// Tree is the routing tree (gateway-rooted).
	Tree = topology.Tree
	// Link is a directed edge, identified by its child endpoint.
	Link = topology.Link
	// Direction distinguishes uplink from downlink.
	Direction = topology.Direction
	// GenSpec parameterises random topology generation.
	GenSpec = topology.GenSpec
)

// Re-exported traffic types.
type (
	// Task is a periodic end-to-end flow.
	Task = traffic.Task
	// TaskID identifies a task.
	TaskID = traffic.TaskID
	// TaskSet is a collection of tasks.
	TaskSet = traffic.Set
	// Demand is the link-level cell requirement derived from tasks.
	Demand = traffic.Demand
)

// Re-exported schedule types.
type (
	// Slotframe is the TDMA frame configuration.
	Slotframe = schedule.Slotframe
	// Cell is one (slot, channel) resource unit.
	Cell = schedule.Cell
	// Region is a rectangular block of cells (a partition's footprint).
	Region = schedule.Region
	// Schedule is a complete link-to-cells assignment.
	Schedule = schedule.Schedule
)

// Re-exported HARP engine types.
type (
	// Plan is the full partition-hierarchy state with dynamic adjustment.
	Plan = core.Plan
	// PlanOptions configures plan construction.
	PlanOptions = core.Options
	// Adjustment reports the cost of one dynamic traffic change.
	Adjustment = core.Adjustment
	// Component is a resource component [slots, channels] (Definition 1).
	Component = core.Component
	// Interface is a per-layer collection of components (Definition 2).
	Interface = core.Interface
)

// Re-exported simulator types.
type (
	// Simulator is the slot-accurate TDMA network simulator.
	Simulator = sim.Simulator
	// SimConfig parameterises a simulation.
	SimConfig = sim.Config
	// PacketRecord traces one task instance end to end.
	PacketRecord = sim.PacketRecord
)

// Topology constructors and constants.
const (
	// GatewayID is the tree root's identifier.
	GatewayID = topology.GatewayID
	// Uplink is the child-to-parent direction.
	Uplink = topology.Uplink
	// Downlink is the parent-to-child direction.
	Downlink = topology.Downlink
)

// NewTree returns a tree holding only the gateway.
func NewTree() *Tree { return topology.New() }

// GenerateTopology builds a random tree per the spec; rng state determines
// the result (pass a *math/rand.Rand via topology.Generate for full
// control — this wrapper seeds from the spec for convenience).
var GenerateTopology = topology.Generate

// Canned topologies from the paper.
var (
	// Fig1Topology is the 12-node, 3-layer example of Fig. 1(a).
	Fig1Topology = topology.Fig1
	// Testbed50Topology is the 50-node, 5-hop testbed tree of Fig. 7(c).
	Testbed50Topology = topology.Testbed50
	// Deep81Topology is the 81-node, 10-layer tree of the §VII-B study.
	Deep81Topology = topology.Deep81
)

// Traffic constructors.
var (
	// NewTaskSet returns an empty task set.
	NewTaskSet = traffic.NewSet
	// UniformEcho builds one end-to-end echo task per node at the rate.
	UniformEcho = traffic.UniformEcho
	// ComputeDemand derives link-level cell requirements from tasks.
	ComputeDemand = traffic.Compute
	// PerLinkDemand builds direction-symmetric per-link demand without
	// convergecast accumulation (the §VII-A workload).
	PerLinkDemand = traffic.PerLink
)

// TestbedSlotframe returns the paper's testbed slotframe: 199 slots of
// 10 ms on 16 channels with a management sub-frame.
func TestbedSlotframe() Slotframe { return schedule.Testbed() }

// NewPlan runs HARP's static partition allocation over explicit demand.
var NewPlan = core.NewPlan

// NewSimulator builds a network simulator; install a schedule with
// SetSchedule and drive it with Run/RunSlotframes.
var NewSimulator = sim.New

// Network bundles a topology, its task set and the live HARP plan behind a
// task-level API: Build performs the static allocation, SetTaskRate applies
// a traffic change end to end (demand recomputation plus dynamic partition
// adjustment on every affected link).
type Network struct {
	Tree  *Tree
	Frame Slotframe
	Tasks *TaskSet
	Plan  *Plan
}

// Build runs the static partition allocation phase for the task set.
func Build(tree *Tree, frame Slotframe, tasks *TaskSet) (*Network, error) {
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(tree, frame, demand, core.Options{})
	if err != nil {
		return nil, err
	}
	return &Network{Tree: tree, Frame: frame, Tasks: tasks, Plan: plan}, nil
}

// Schedule materialises the current collision-free network schedule.
func (n *Network) Schedule() (*Schedule, error) { return n.Plan.BuildSchedule() }

// Validate checks the partition-hierarchy and schedule invariants.
func (n *Network) Validate() error { return n.Plan.Validate() }

// SetTaskRate changes a task's packet rate and adjusts the schedule: the
// demand of every link on the task's path is recomputed and pushed through
// HARP's dynamic partition adjustment. The per-link adjustment reports are
// returned in path order (uplinks first).
func (n *Network) SetTaskRate(id TaskID, rate float64) ([]*Adjustment, error) {
	if err := n.Tasks.SetRate(id, rate); err != nil {
		return nil, err
	}
	demand, err := traffic.Compute(n.Tree, n.Tasks)
	if err != nil {
		return nil, err
	}
	var reports []*Adjustment
	for _, l := range demand.Links() {
		want := demand.Cells(l)
		if want == n.Plan.Demand(l) {
			continue
		}
		flows := demand.Flows(l)
		top := rate
		if len(flows) > 0 {
			top = flows[0].Task.Rate
		}
		adj, err := n.Plan.SetLinkDemand(l, want, top)
		if err != nil {
			return reports, err
		}
		if adj.Case == core.CaseRejected {
			return reports, fmt.Errorf("harp: network cannot host task %d at rate %.2f (link %v)", id, rate, l)
		}
		reports = append(reports, adj)
	}
	return reports, nil
}

// TotalMessages sums the HARP protocol messages across adjustment reports.
func TotalMessages(reports []*Adjustment) int {
	total := 0
	for _, r := range reports {
		total += r.TotalMessages()
	}
	return total
}

// TopologyAdjustment reports the cost of absorbing one parent switch.
type TopologyAdjustment = core.TopologyAdjustment

// ReparentNode absorbs a topology change: node (with its subtree) moves
// under newParent — the event RPL produces when a link degrades and a more
// reliable parent is selected. The task set is re-routed over the new tree
// and HARP migrates the affected partitions incrementally; see
// core.Plan.Reparent for the mechanics. On core.ErrReparentFailed the
// caller should rebuild with Build.
func (n *Network) ReparentNode(node, newParent NodeID) (*TopologyAdjustment, error) {
	clone := n.Tree.Clone()
	if err := clone.Reparent(node, newParent); err != nil {
		return nil, err
	}
	demand, err := traffic.Compute(clone, n.Tasks)
	if err != nil {
		return nil, err
	}
	return n.Plan.Reparent(node, newParent, demand)
}
