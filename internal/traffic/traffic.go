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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
//
//harplint:allow unused the task-count checks of traffic's tests and the scaleFleet fixtures of core and cosim
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
// carries the rate for Rate-Monotonic ordering; task IDs count up from 1
// node by node in ID order, uplink first.
func PerLink(tree *topology.Tree, rate float64) (*Demand, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: non-positive rate %.3f", rate)
	}
	nodes := tree.Nodes()[1:] // the gateway, ID 0, comes first
	d := newDemand(2 * len(nodes))
	for _, dir := range topology.Directions() {
		for k, id := range nodes {
			t := Task{ID: TaskID(2*k + int(dir) + 1), Source: id, Actuator: id, Rate: rate}
			d.push(topology.Link{Child: id, Direction: dir}, Flow{Task: t, Cells: t.CellDemand()})
		}
	}
	return d, nil
}

// FromCells wraps a raw link-to-cells map as a Demand, backing each link
// with a synthetic single-link task whose rate equals the cell count (so
// Rate-Monotonic ordering tracks demand). Useful when requirements come
// from protocol state rather than a task set. Links with no positive count
// are dropped, and the synthetic task IDs count up from 1 in Links() order.
func FromCells(cells map[topology.Link]int) *Demand {
	type linkCells struct {
		link  topology.Link
		cells int
	}
	held := make([]linkCells, 0, len(cells))
	for l, c := range cells {
		if c > 0 {
			held = append(held, linkCells{l, c})
		}
	}
	slices.SortFunc(held, func(a, b linkCells) int { return compareLinks(a.link, b.link) })
	d := newDemand(len(held))
	for i, h := range held {
		t := Task{ID: TaskID(i + 1), Source: h.link.Child, Actuator: h.link.Child, Rate: float64(h.cells)}
		d.push(h.link, Flow{Task: t, Cells: h.cells})
	}
	return d
}

// Flow is one task's share of a link's cell requirement; it retains the task
// so per-link schedulers (e.g. Rate Monotonic) can prioritise by period.
type Flow struct {
	Task  Task
	Cells int
}

// Demand is the link-level cell requirement r(e) plus the contributing
// flows per link. It is a table of the links that carry demand, in Links()
// order, so its size follows those links and not the tree: entry i is
// links[i], its requirement cells[i], and its flows the range of one flow
// array that ends at ends[i], in Rate Monotonic order. A Demand is
// read-only once built.
type Demand struct {
	links []topology.Link
	cells []int
	ends  []int
	flows []Flow
}

// newDemand returns an empty Demand with room for n single-flow links.
func newDemand(n int) *Demand {
	return &Demand{
		links: make([]topology.Link, 0, n),
		cells: make([]int, 0, n),
		ends:  make([]int, 0, n),
		flows: make([]Flow, 0, n),
	}
}

// push appends link l carrying the one flow f; links must come in Links()
// order.
func (d *Demand) push(l topology.Link, f Flow) {
	d.links = append(d.links, l)
	d.cells = append(d.cells, f.Cells)
	d.flows = append(d.flows, f)
	d.ends = append(d.ends, len(d.flows))
}

// compareLinks orders links as Links() lists them: uplinks before
// downlinks, then by child ID.
func compareLinks(a, b topology.Link) int {
	return cmp.Or(cmp.Compare(a.Direction, b.Direction), cmp.Compare(a.Child, b.Child))
}

// compareRM orders one link's flows by Rate Monotonic priority: descending
// rate (ascending period), then task ID.
func compareRM(a, b Flow) int {
	return cmp.Or(cmp.Compare(b.Task.Rate, a.Task.Rate), cmp.Compare(a.Task.ID, b.Task.ID))
}

// find returns link l's entry, and whether l carries demand. The binary
// search compares in line: agent.Deploy asks for every child link of every
// node, most of which carry no demand.
func (d *Demand) find(l topology.Link) (int, bool) {
	lo, hi := 0, len(d.links)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if e := d.links[h]; e.Direction < l.Direction || e.Direction == l.Direction && e.Child < l.Child {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(d.links) && d.links[lo] == l
}

// Cells returns r(e) for the link (0 when no task crosses it).
func (d *Demand) Cells(l topology.Link) int {
	if i, ok := d.find(l); ok {
		return d.cells[i]
	}
	return 0
}

// Flows returns the tasks crossing the link, sorted by descending rate
// (ascending period), the Rate Monotonic priority order. The slice is the
// Demand's own and must not be modified.
func (d *Demand) Flows(l topology.Link) []Flow {
	i, ok := d.find(l)
	if !ok {
		return nil
	}
	from := 0
	if i > 0 {
		from = d.ends[i-1]
	}
	return d.flows[from:d.ends[i]:d.ends[i]]
}

// Links returns every link with non-zero demand, sorted (uplinks before
// downlinks, then by child ID). The slice is the Demand's own and must not
// be modified.
func (d *Demand) Links() []topology.Link { return d.links[:len(d.links):len(d.links)] }

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
	ts := tasks.Tasks()
	// at is scratch by direction and the child's Tree.Index: 1 + the
	// link's position in links while the paths are walked, then the link's
	// entry once links is sorted. hops holds one (at index, task) pair per
	// link a task crosses, in task ID order.
	n := tree.IndexCap()
	at := make([]int32, 2*n)
	var links []topology.Link
	type hop struct{ at, task int32 }
	var hops []hop
	for ti, t := range ts {
		for dir, end := range [2]topology.NodeID{topology.Uplink: t.Source, topology.Downlink: t.Actuator} {
			path, err := tree.PathToGateway(end)
			if err != nil {
				return nil, err
			}
			for _, id := range path[:len(path)-1] { // exclude the gateway itself
				k := dir*n + tree.Index(id)
				if at[k] == 0 {
					links = append(links, topology.Link{Child: id, Direction: topology.Direction(dir)})
					at[k] = int32(len(links))
				}
				hops = append(hops, hop{int32(k), int32(ti)})
			}
		}
	}
	slices.SortFunc(links, compareLinks)
	ends := make([]int, len(links)+1)
	for e, l := range links {
		at[int(l.Direction)*n+tree.Index(l.Child)] = int32(e)
	}
	for _, h := range hops {
		ends[at[h.at]+1]++
	}
	for e := range links {
		ends[e+1] += ends[e]
	}
	// Each entry's flows are placed from its start, which leaves ends[e]
	// at the entry's end.
	d := &Demand{links: links, cells: make([]int, len(links)), ends: ends[:len(links)], flows: make([]Flow, len(hops))}
	for _, h := range hops {
		e, t := at[h.at], ts[h.task]
		d.flows[ends[e]] = Flow{Task: t, Cells: t.CellDemand()}
		d.cells[e] += t.CellDemand()
		ends[e]++
	}
	// The flows arrived in task ID order; only differing rates reorder them.
	from := 0
	for _, end := range d.ends {
		if f := d.flows[from:end]; !slices.IsSortedFunc(f, compareRM) {
			slices.SortFunc(f, compareRM)
		}
		from = end
	}
	return d, nil
}
