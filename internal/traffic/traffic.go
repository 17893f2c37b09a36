// Package traffic models the periodic end-to-end tasks an industrial
// wireless network carries and derives per-link cell requirements from them.
//
// A task (paper §II-A) periodically samples a sensor, sends the reading
// along the uplink routing path to the gateway, and the gateway returns a
// control packet along the downlink path to an actuator. Task-level
// requirements are abstracted into link-level cell requirements r(e): every
// link on a task's path needs enough cells per slotframe to forward the
// task's packets, and requirements of tasks sharing a link accumulate.
package traffic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/harpnet/harp/internal/topology"
)

// TaskID identifies a task.
type TaskID int

// Task is a periodic end-to-end flow. Rate is expressed in packets per
// slotframe, matching the paper's workload knob (e.g. Fig. 10 raises Node
// 15's rate from 1 to 1.5 to 3 packets/slotframe). Fractional rates are
// allowed; cell demand is the ceiling, since a cell is the indivisible
// resource unit.
type Task struct {
	ID       TaskID
	Source   topology.NodeID // sensing node (uplink origin)
	Actuator topology.NodeID // downlink destination; often == Source (e2e echo)
	Rate     float64         // packets per slotframe (> 0)
}

// CellDemand returns the number of cells per slotframe the task needs on
// every link of its path: ceil(Rate).
func (t Task) CellDemand() int {
	return int(math.Ceil(t.Rate))
}

// PeriodSlots returns the task period in time slots for a slotframe of the
// given length — the quantity Rate Monotonic scheduling prioritises by
// (shorter period first).
func (t Task) PeriodSlots(slotframeLen int) float64 {
	return float64(slotframeLen) / t.Rate
}

// String summarises the task endpoints, direction and period.
func (t Task) String() string {
	return fmt.Sprintf("task %d (src=%d act=%d rate=%.2f/sf)", t.ID, t.Source, t.Actuator, t.Rate)
}

// Validate checks the task against a topology.
func (t Task) Validate(tree *topology.Tree) error {
	if t.Rate <= 0 {
		return fmt.Errorf("traffic: %v has non-positive rate", t)
	}
	if !tree.Has(t.Source) {
		return fmt.Errorf("traffic: %v has unknown source", t)
	}
	if !tree.Has(t.Actuator) {
		return fmt.Errorf("traffic: %v has unknown actuator", t)
	}
	return nil
}

// Set is a collection of tasks keyed by ID.
type Set struct {
	tasks map[TaskID]Task
}

// NewSet returns an empty task set.
func NewSet() *Set { return &Set{tasks: make(map[TaskID]Task)} }

// ErrDuplicateTask is returned when adding a task whose ID already exists.
var ErrDuplicateTask = errors.New("traffic: duplicate task id")

// Add inserts a task.
func (s *Set) Add(t Task) error {
	if _, ok := s.tasks[t.ID]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateTask, t.ID)
	}
	s.tasks[t.ID] = t
	return nil
}

// SetRate updates a task's rate in place — the traffic-change event that
// drives HARP's dynamic partition adjustment.
func (s *Set) SetRate(id TaskID, rate float64) error {
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("traffic: unknown task %d", id)
	}
	if rate <= 0 {
		return fmt.Errorf("traffic: non-positive rate %.3f for task %d", rate, id)
	}
	t.Rate = rate
	s.tasks[id] = t
	return nil
}

// Len returns the number of tasks.
func (s *Set) Len() int { return len(s.tasks) }

// Tasks returns the tasks sorted by ID.
func (s *Set) Tasks() []Task {
	out := make([]Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet()
	for id, t := range s.tasks {
		c.tasks[id] = t
	}
	return c
}

// Validate checks every task against the topology.
func (s *Set) Validate(tree *topology.Tree) error {
	for _, t := range s.Tasks() {
		if err := t.Validate(tree); err != nil {
			return err
		}
	}
	return nil
}

// UniformEcho builds the testbed workload of §VI-B: one end-to-end echo task
// per non-gateway node, each at the given rate. Task IDs equal the source
// node IDs for readability.
func UniformEcho(tree *topology.Tree, rate float64) (*Set, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: non-positive rate %.3f", rate)
	}
	s := NewSet()
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		if err := s.Add(Task{ID: TaskID(id), Source: id, Actuator: id, Rate: rate}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// PerLink builds a demand in which every link of the tree requires
// ceil(rate) cells in both directions, with no convergecast accumulation —
// the workload of the collision study (§VII-A), where "the data rate of
// each node" is a per-link quantity. A synthetic single-hop task per link
// carries the rate for Rate-Monotonic ordering.
func PerLink(tree *topology.Tree, rate float64) (*Demand, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: non-positive rate %.3f", rate)
	}
	d := &Demand{
		cells: make(map[topology.Link]int),
		flows: make(map[topology.Link][]Flow),
	}
	next := TaskID(1)
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		for _, dir := range topology.Directions() {
			t := Task{ID: next, Source: id, Actuator: id, Rate: rate}
			next++
			d.add(topology.Link{Child: id, Direction: dir}, t)
		}
	}
	return d, nil
}

// FromCells wraps a raw link-to-cells map as a Demand, backing each link
// with a synthetic single-link task whose rate equals the cell count (so
// Rate-Monotonic ordering tracks demand). Useful when requirements come
// from protocol state rather than a task set.
func FromCells(cells map[topology.Link]int) *Demand {
	d := &Demand{
		cells: make(map[topology.Link]int, len(cells)),
		flows: make(map[topology.Link][]Flow, len(cells)),
	}
	next := TaskID(1)
	for l, c := range cells {
		if c <= 0 {
			continue
		}
		t := Task{ID: next, Source: l.Child, Actuator: l.Child, Rate: float64(c)}
		next++
		d.add(l, t)
		d.cells[l] = c // override the ceil-accumulated value with the exact count
	}
	return d
}

// Flow is one task's share of a link's cell requirement; it retains the task
// so per-link schedulers (e.g. Rate Monotonic) can prioritise by period.
type Flow struct {
	Task  Task
	Cells int
}

// Demand is the link-level cell requirement map r(e) plus the contributing
// flows per link.
type Demand struct {
	cells map[topology.Link]int
	flows map[topology.Link][]Flow
}

// Cells returns r(e) for the link (0 when no task crosses it).
func (d *Demand) Cells(l topology.Link) int { return d.cells[l] }

// Flows returns the tasks crossing the link, sorted by descending rate
// (ascending period), the Rate Monotonic priority order.
func (d *Demand) Flows(l topology.Link) []Flow {
	out := make([]Flow, len(d.flows[l]))
	copy(out, d.flows[l])
	return out
}

// Links returns every link with non-zero demand, sorted (uplinks before
// downlinks, then by child ID).
func (d *Demand) Links() []topology.Link {
	out := make([]topology.Link, 0, len(d.cells))
	for l := range d.cells {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Direction != b.Direction {
			return a.Direction < b.Direction
		}
		return a.Child < b.Child
	})
	return out
}

// TotalCells sums r(e) over all links — the slotframe load the collision
// study (Fig. 11) reports as "total number of cells required by all nodes".
func (d *Demand) TotalCells() int {
	total := 0
	for _, c := range d.cells {
		total += c
	}
	return total
}

// Compute derives link-level demand from a task set over a topology
// (§II-A): for each task, every uplink on the source→gateway path and every
// downlink on the gateway→actuator path needs ceil(rate) cells, and demands
// accumulate across tasks.
func Compute(tree *topology.Tree, tasks *Set) (*Demand, error) {
	if err := tasks.Validate(tree); err != nil {
		return nil, err
	}
	d := &Demand{
		cells: make(map[topology.Link]int),
		flows: make(map[topology.Link][]Flow),
	}
	for _, t := range tasks.Tasks() {
		up, err := tree.PathToGateway(t.Source)
		if err != nil {
			return nil, err
		}
		for _, hop := range up[:len(up)-1] { // exclude the gateway itself
			d.add(topology.Link{Child: hop, Direction: topology.Uplink}, t)
		}
		down, err := tree.PathToGateway(t.Actuator)
		if err != nil {
			return nil, err
		}
		for _, hop := range down[:len(down)-1] {
			d.add(topology.Link{Child: hop, Direction: topology.Downlink}, t)
		}
	}
	for l := range d.flows {
		flows := d.flows[l]
		sort.Slice(flows, func(i, j int) bool {
			if flows[i].Task.Rate != flows[j].Task.Rate {
				return flows[i].Task.Rate > flows[j].Task.Rate
			}
			return flows[i].Task.ID < flows[j].Task.ID
		})
	}
	return d, nil
}

func (d *Demand) add(l topology.Link, t Task) {
	d.cells[l] += t.CellDemand()
	d.flows[l] = append(d.flows[l], Flow{Task: t, Cells: t.CellDemand()})
}
