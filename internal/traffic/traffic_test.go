package traffic

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/harpnet/harp/internal/topology"
)

func TestTaskCellDemand(t *testing.T) {
	cases := []struct {
		rate float64
		want int
	}{
		{1, 1}, {1.5, 2}, {3, 3}, {0.25, 1}, {7.01, 8},
	}
	for _, c := range cases {
		task := Task{Rate: c.rate}
		if got := task.CellDemand(); got != c.want {
			t.Errorf("CellDemand(rate=%.2f) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestTaskPeriodSlots(t *testing.T) {
	task := Task{Rate: 2}
	if got := task.PeriodSlots(200); got != 100 {
		t.Errorf("PeriodSlots = %.1f, want 100", got)
	}
}

func TestTaskValidate(t *testing.T) {
	tree := topology.Fig1()
	good := Task{ID: 1, Source: 8, Actuator: 8, Rate: 1}
	if err := good.Validate(tree); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []Task{
		{ID: 1, Source: 8, Actuator: 8, Rate: 0},
		{ID: 1, Source: 99, Actuator: 8, Rate: 1},
		{ID: 1, Source: 8, Actuator: 99, Rate: 1},
	}
	for _, b := range bad {
		if err := b.Validate(tree); err == nil {
			t.Errorf("invalid task accepted: %v", b)
		}
	}
	if good.String() == "" {
		t.Error("Task.String empty")
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet()
	if err := s.Add(Task{ID: 1, Source: 1, Actuator: 1, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Task{ID: 1, Source: 2, Actuator: 2, Rate: 1}); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("want ErrDuplicateTask, got %v", err)
	}
	if _, ok := s.Get(1); !ok {
		t.Error("Get(1) failed")
	}
	if err := s.SetRate(1, 2.5); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(1); got.Rate != 2.5 {
		t.Errorf("rate after SetRate = %.2f, want 2.5", got.Rate)
	}
	if err := s.SetRate(9, 1); err == nil {
		t.Error("SetRate on unknown task accepted")
	}
	if err := s.SetRate(1, 0); err == nil {
		t.Error("SetRate zero accepted")
	}
	clone := s.Clone()
	if err := clone.SetRate(1, 5); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(1); got.Rate != 2.5 {
		t.Error("mutating clone affected original")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestUniformEcho(t *testing.T) {
	tree := topology.Fig1()
	s, err := UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 11 {
		t.Errorf("tasks = %d, want 11 (every non-gateway node)", s.Len())
	}
	if err := s.Validate(tree); err != nil {
		t.Error(err)
	}
	if _, err := UniformEcho(tree, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestComputeDemandChain(t *testing.T) {
	// Chain 0 <- 1 <- 2 <- 3 with a single echo task at node 3, rate 1:
	// every uplink and downlink on the path needs exactly 1 cell.
	tree := topology.New()
	for i := topology.NodeID(1); i <= 3; i++ {
		if err := tree.AddNode(i, i-1); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSet()
	if err := s.Add(Task{ID: 1, Source: 3, Actuator: 3, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	d, err := Compute(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := topology.NodeID(1); i <= 3; i++ {
		for _, dir := range topology.Directions() {
			l := topology.Link{Child: i, Direction: dir}
			if d.Cells(l) != 1 {
				t.Errorf("Cells(%v) = %d, want 1", l, d.Cells(l))
			}
		}
	}
	if d.TotalCells() != 6 {
		t.Errorf("TotalCells = %d, want 6", d.TotalCells())
	}
	if got := len(d.Links()); got != 6 {
		t.Errorf("Links count = %d, want 6", got)
	}
}

func TestComputeDemandSubtreeSizes(t *testing.T) {
	// With one echo task per node at rate 1, a node's uplink demand equals
	// its subtree size (§VI-B: "the data rates of both uplink and downlink
	// of individual nodes equal to the size of their subtrees").
	tree := topology.Testbed50()
	s, err := UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		sub, _ := tree.Subtree(id)
		size := len(sub)
		up := d.Cells(topology.Link{Child: id, Direction: topology.Uplink})
		down := d.Cells(topology.Link{Child: id, Direction: topology.Downlink})
		if up != size || down != size {
			t.Errorf("node %d: demand up=%d down=%d, want subtree size %d", id, up, down, size)
		}
	}
}

func TestComputeDemandFractionalRates(t *testing.T) {
	tree := topology.Fig1()
	s := NewSet()
	if err := s.Add(Task{ID: 1, Source: 8, Actuator: 8, Rate: 1.5}); err != nil {
		t.Fatal(err)
	}
	d, err := Compute(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	l := topology.Link{Child: 8, Direction: topology.Uplink}
	if d.Cells(l) != 2 {
		t.Errorf("fractional rate demand = %d, want ceil(1.5)=2", d.Cells(l))
	}
}

func TestComputeDemandRejectsInvalidTasks(t *testing.T) {
	tree := topology.Fig1()
	s := NewSet()
	if err := s.Add(Task{ID: 1, Source: 99, Actuator: 1, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(tree, s); err == nil {
		t.Error("Compute accepted task with unknown source")
	}
}

func TestFlowsSortedByRate(t *testing.T) {
	tree := topology.Fig1()
	s := NewSet()
	// Two tasks sharing link 1->gateway with different rates.
	if err := s.Add(Task{ID: 1, Source: 4, Actuator: 4, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Task{ID: 2, Source: 5, Actuator: 5, Rate: 3}); err != nil {
		t.Fatal(err)
	}
	d, err := Compute(tree, s)
	if err != nil {
		t.Fatal(err)
	}
	flows := d.Flows(topology.Link{Child: 1, Direction: topology.Uplink})
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if flows[0].Task.ID != 2 {
		t.Errorf("RM order wrong: first flow is task %d, want 2 (higher rate)", flows[0].Task.ID)
	}
	if d.Cells(topology.Link{Child: 1, Direction: topology.Uplink}) != 4 {
		t.Errorf("accumulated demand = %d, want 4", d.Cells(topology.Link{Child: 1, Direction: topology.Uplink}))
	}
}

func TestDemandPropertyConservation(t *testing.T) {
	// Total demand equals sum over tasks of ceil(rate) * (uplink hops +
	// downlink hops).
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 15 + rng.Intn(30), Layers: 3}, rng)
		if err != nil {
			return false
		}
		s := NewSet()
		nodes := tree.Nodes()
		want := 0
		for i := 0; i < 5; i++ {
			src := nodes[1+rng.Intn(len(nodes)-1)]
			act := nodes[1+rng.Intn(len(nodes)-1)]
			rate := 0.5 + rng.Float64()*3
			task := Task{ID: TaskID(i), Source: src, Actuator: act, Rate: rate}
			if err := s.Add(task); err != nil {
				return false
			}
			ds, _ := tree.Depth(src)
			da, _ := tree.Depth(act)
			want += task.CellDemand() * (ds + da)
		}
		d, err := Compute(tree, s)
		if err != nil {
			return false
		}
		return d.TotalCells() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPerLinkDemand(t *testing.T) {
	tree := topology.Fig1()
	d, err := PerLink(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-gateway node's links carry exactly ceil(rate) cells, both
	// directions, no convergecast accumulation.
	for _, id := range tree.Nodes() {
		if id == topology.GatewayID {
			continue
		}
		for _, dir := range topology.Directions() {
			l := topology.Link{Child: id, Direction: dir}
			if d.Cells(l) != 3 {
				t.Errorf("Cells(%v) = %d, want 3", l, d.Cells(l))
			}
			flows := d.Flows(l)
			if len(flows) != 1 || flows[0].Task.Rate != 3 {
				t.Errorf("Flows(%v) = %+v", l, flows)
			}
		}
	}
	if d.TotalCells() != 11*2*3 {
		t.Errorf("TotalCells = %d, want 66", d.TotalCells())
	}
	if _, err := PerLink(tree, 0); err == nil {
		t.Error("zero rate accepted")
	}
	// Fractional rates round up.
	d2, err := PerLink(tree, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Cells(topology.Link{Child: 4, Direction: topology.Uplink}) != 2 {
		t.Error("fractional per-link rate not ceiled")
	}
}

func TestFromCells(t *testing.T) {
	cells := map[topology.Link]int{
		{Child: 1, Direction: topology.Uplink}:   4,
		{Child: 2, Direction: topology.Downlink}: 2,
		{Child: 3, Direction: topology.Uplink}:   0, // dropped
	}
	d := FromCells(cells)
	if got := d.Cells(topology.Link{Child: 1, Direction: topology.Uplink}); got != 4 {
		t.Errorf("Cells = %d, want 4", got)
	}
	if got := d.Cells(topology.Link{Child: 2, Direction: topology.Downlink}); got != 2 {
		t.Errorf("Cells = %d, want 2", got)
	}
	if len(d.Links()) != 2 {
		t.Errorf("Links = %v, want 2 entries (zero-cell dropped)", d.Links())
	}
	flows := d.Flows(topology.Link{Child: 1, Direction: topology.Uplink})
	if len(flows) != 1 || flows[0].Task.Rate != 4 {
		t.Errorf("flows = %+v, want one synthetic task at rate 4", flows)
	}
	if d.TotalCells() != 6 {
		t.Errorf("TotalCells = %d, want 6", d.TotalCells())
	}
}

// mapDemand is the reference a Demand is checked against: per-link cells
// and flows in plain maps, built the straightforward way.
type mapDemand struct {
	cells map[topology.Link]int
	flows map[topology.Link][]Flow
}

func (m *mapDemand) add(l topology.Link, f Flow) {
	m.cells[l] += f.Cells
	m.flows[l] = append(m.flows[l], f)
}

// links returns the model's links, uplinks first, then by child ID.
func (m *mapDemand) links() []topology.Link {
	out := make([]topology.Link, 0, len(m.cells))
	for l := range m.cells {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Direction != out[j].Direction {
			return out[i].Direction < out[j].Direction
		}
		return out[i].Child < out[j].Child
	})
	return out
}

// TestDemandMatchesMapModel builds demands with Compute, PerLink and
// FromCells on seeded random trees and task sets and checks each against
// the map model: Cells and Flows (contents and Rate Monotonic order) on
// every link, on and off the tree, Links() order and TotalCells.
func TestDemandMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree, err := topology.Generate(topology.GenSpec{Nodes: 5 + rng.Intn(40), Layers: 1 + rng.Intn(5)}, rng)
		if err != nil {
			t.Fatal(err)
		}
		nodes := tree.Nodes()
		newModel := func() *mapDemand {
			return &mapDemand{cells: make(map[topology.Link]int), flows: make(map[topology.Link][]Flow)}
		}

		// Compute: random endpoints, rates drawn from a few values so ties
		// and differing rates share links.
		tasks, want := NewSet(), newModel()
		for n := rng.Intn(25); n > 0; n-- {
			rate := []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
			task := Task{ID: TaskID(rng.Intn(1000)), Source: nodes[1+rng.Intn(len(nodes)-1)], Actuator: nodes[1+rng.Intn(len(nodes)-1)], Rate: rate}
			if err := tasks.Add(task); err != nil && !errors.Is(err, ErrDuplicateTask) {
				t.Fatal(err)
			}
		}
		for _, task := range tasks.Tasks() {
			for _, end := range []struct {
				node topology.NodeID
				dir  topology.Direction
			}{{task.Source, topology.Uplink}, {task.Actuator, topology.Downlink}} {
				path, err := tree.PathToGateway(end.node)
				if err != nil {
					t.Fatal(err)
				}
				for _, hop := range path[:len(path)-1] {
					want.add(topology.Link{Child: hop, Direction: end.dir}, Flow{Task: task, Cells: task.CellDemand()})
				}
			}
		}
		for _, flows := range want.flows {
			sort.SliceStable(flows, func(i, j int) bool { return flows[i].Task.Rate > flows[j].Task.Rate })
		}
		got, err := Compute(tree, tasks)
		if err != nil {
			t.Fatal(err)
		}
		demandAgrees(t, seed, "Compute", tree, got, want)

		// PerLink: one synthetic task per link, numbered node by node.
		rate := 0.5 + float64(rng.Intn(6))/2
		want = newModel()
		next := TaskID(1)
		for _, id := range nodes[1:] {
			for _, dir := range topology.Directions() {
				task := Task{ID: next, Source: id, Actuator: id, Rate: rate}
				next++
				want.add(topology.Link{Child: id, Direction: dir}, Flow{Task: task, Cells: task.CellDemand()})
			}
		}
		if got, err = PerLink(tree, rate); err != nil {
			t.Fatal(err)
		}
		demandAgrees(t, seed, "PerLink", tree, got, want)

		// FromCells: arbitrary links (gateway, absent and far IDs
		// included) and counts (zero and negative ones dropped).
		cells := make(map[topology.Link]int)
		for n := rng.Intn(30); n > 0; n-- {
			l := topology.Link{Child: topology.NodeID(rng.Intn(len(nodes) + 5)), Direction: topology.Directions()[rng.Intn(2)]}
			cells[l] = rng.Intn(6) - 1
		}
		want = newModel()
		raw := &mapDemand{cells: cells}
		for _, l := range raw.links() {
			if c := cells[l]; c > 0 {
				task := Task{ID: TaskID(len(want.cells) + 1), Source: l.Child, Actuator: l.Child, Rate: float64(c)}
				want.add(l, Flow{Task: task, Cells: c})
			}
		}
		demandAgrees(t, seed, "FromCells", tree, FromCells(cells), want)
	}
}

func demandAgrees(t *testing.T, seed int64, from string, tree *topology.Tree, got *Demand, want *mapDemand) {
	t.Helper()
	if g, w := got.Links(), want.links(); !slices.Equal(g, w) {
		t.Fatalf("seed %d %s: Links() = %v, model %v", seed, from, g, w)
	}
	total := 0
	for _, c := range want.cells {
		total += c
	}
	if g := got.TotalCells(); g != total {
		t.Fatalf("seed %d %s: TotalCells = %d, model %d", seed, from, g, total)
	}
	probe := append(want.links(), topology.Link{Child: topology.NodeID(tree.Len() + 10), Direction: topology.Uplink})
	for _, id := range tree.Nodes() {
		for _, dir := range topology.Directions() {
			probe = append(probe, topology.Link{Child: id, Direction: dir})
		}
	}
	for _, l := range probe {
		if g, w := got.Cells(l), want.cells[l]; g != w {
			t.Fatalf("seed %d %s: Cells(%v) = %d, model %d", seed, from, l, g, w)
		}
		if g, w := got.Flows(l), want.flows[l]; !slices.Equal(g, w) {
			t.Fatalf("seed %d %s: Flows(%v) = %v, model %v", seed, from, l, g, w)
		}
	}
}
