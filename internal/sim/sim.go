// Package sim is a slot-accurate discrete-event simulator of a
// multi-channel TDMA industrial wireless network. It drives packets of
// periodic end-to-end tasks hop by hop along the routing tree according to
// a cell schedule, resolving half-duplex contention, co-cell collisions and
// Bernoulli packet loss per transmission, and records per-packet end-to-end
// latency — the measurement substrate for Fig. 9, Fig. 10 and the
// Fig. 11 collision studies.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/harpnet/harp/internal/bitset"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/vclock"
)

// Config parameterises a simulation run.
type Config struct {
	Tree  *topology.Tree
	Frame schedule.Slotframe
	Tasks *traffic.Set
	// PDR is the per-transmission success probability on an uncontended
	// cell (1 = ideal radio). The paper's testbed observed environmental
	// loss; Fig. 9 uses PDR < 1 to reproduce its latency tail.
	PDR float64
	// MaxQueue caps each link queue; packets arriving at a full queue are
	// dropped. Zero means DefaultMaxQueue.
	MaxQueue int
	// MaxRetries caps transmission attempts per hop, as TSCH MACs do; a
	// packet exceeding it is dropped. Zero means unlimited retries.
	MaxRetries int
	// Seed drives all randomness (loss draws, generation jitter).
	Seed int64
}

// DefaultMaxQueue is the per-link queue capacity when Config.MaxQueue is 0.
const DefaultMaxQueue = 64

// PacketRecord traces one task instance through the network.
type PacketRecord struct {
	Task      traffic.TaskID
	CreatedAt int // slot index of generation at the source
	Delivered bool
	// DeliveredAt is the slot the packet reached its final destination
	// (meaningful only when Delivered).
	DeliveredAt int
	// Hops is the number of successful link transmissions.
	Hops int
	// Dropped reports queue-overflow loss.
	Dropped bool
}

// Latency returns the end-to-end latency in slots.
func (r PacketRecord) Latency() int { return r.DeliveredAt - r.CreatedAt }

// packet is an in-flight task instance.
type packet struct {
	task      traffic.TaskID
	createdAt int
	hops      int
	attempts  int // failed transmission attempts at the current hop
	// route is the node sequence of the current leg (next hop first, final
	// destination last) and linkQ the parallel queue-index sequence:
	// linkQ[hop] is the queue the packet sits in now. Both slices are the
	// immutable per-endpoint cached arrays; only the hop cursor moves per
	// hop — rewriting the slice headers would pay two GC write barriers on
	// every hop of every packet.
	route []topology.NodeID
	linkQ []int
	hop   int
	// dir is the current traversal direction.
	dir topology.Direction
	// echo indicates a downlink leg follows the uplink leg; actuator is the
	// downlink destination, carried in the packet so the turnaround at the
	// gateway needs no task lookup.
	echo     bool
	actuator topology.NodeID
	rec      int // index into records
}

// linkQueue is one link's FIFO of queued packets, popped by advancing a head
// index instead of shifting: a []*packet copy pays a GC write barrier per
// element per pop, which the transmit profile shows dwarfing the simulation
// itself. The buffer compacts when the dead prefix dominates, so the cost of
// moving pointers is amortized to O(1/compactAfter) per pop.
type linkQueue struct {
	buf  []*packet
	head int
}

// compactAfter is the dead-prefix length that triggers compaction.
const compactAfter = 32

func (q *linkQueue) depth() int     { return len(q.buf) - q.head }
func (q *linkQueue) front() *packet { return q.buf[q.head] }
func (q *linkQueue) push(p *packet) { q.buf = append(q.buf, p) }
func (q *linkQueue) pop() *packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil // release the reference for the pool
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= compactAfter {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return p
}

// reset drops every queued packet (without pooling them — callers own the
// records they strand).
func (q *linkQueue) reset() {
	for i := range q.buf {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// Simulator holds the mutable simulation state. Not safe for concurrent
// use.
type Simulator struct {
	cfg   Config
	tree  *topology.Tree
	frame schedule.Slotframe
	rng   *rand.Rand

	// clock schedules one event per simulated slot; by default it is
	// private, but BindClock rebinds the simulator onto a shared clock so
	// slots interleave with other consumers' events (the transport bus in
	// co-simulation). origin maps slot indices to virtual time: slot n
	// runs at origin + n.
	clock  *vclock.Clock
	origin float64

	now int // absolute slot index

	// cellsBySlot indexes the active schedule by slot-in-frame (length
	// frame.Slots — one bounds-checked load per executed slot, no hashing).
	cellsBySlot [][]scheduledCell
	maxQueue    int

	// Queue storage is index-addressed: every link ever carrying traffic
	// gets a stable dense index (qindex), and the hot path — transmit,
	// enqueue, advance — works purely on those ints. queueIx/queueLink
	// translate at the edges (route caching, schedule swaps);
	// the per-slot loops never touch a map.
	queueIx   map[topology.Link]int
	queueLink []topology.Link
	queueList []linkQueue

	// taskState tracks packet generation per task; taskList is the same
	// state in the fixed ascending-ID release order (the task set never
	// changes mid-run), so the generate scan never hashes a task id.
	// releaseMin caches the earliest next-release instant across all tasks
	// so idle slots skip the per-task scan entirely.
	taskState  map[traffic.TaskID]*taskGen
	taskList   []*taskGen
	releaseMin float64

	records []PacketRecord

	// Route caches: the tree is immutable for the simulator's lifetime, so
	// per-packet routes are computed once per task endpoint at construction
	// and shared between packets. advance only moves a packet's hop cursor,
	// never writes through the arrays, which makes the sharing safe. upLinkQ and
	// downLinkQ are the parallel queue-index sequences packets carry in
	// linkQ (upLinkQ[src][0] is the source's own uplink queue).
	upRoutes   map[topology.NodeID][]topology.NodeID
	downRoutes map[topology.NodeID][]topology.NodeID
	upLinkQ    map[topology.NodeID][]int
	downLinkQ  map[topology.NodeID][]int

	// pool recycles delivered and dropped packets so steady-state traffic
	// allocates nothing per packet.
	pool []*packet

	// Scratch state reused by transmit every slot, so the hot path does
	// not allocate. Node commitments live in dense generation-stamped
	// arrays (an entry is valid only when its stamp equals the current
	// epoch), so "clearing" them is one counter increment per slot; node
	// ids map to array indices via nodeIx, resolved once at SetSchedule.
	// usersCh counts same-channel senders within the slot (co-cell
	// contention — all cells of one slot share the slot coordinate, so the
	// channel alone keys a cell). attemptsBuf is truncated per slot.
	nodeIx      map[topology.NodeID]int
	commitOf    []commitment
	commitGen   []uint64
	commitEpoch uint64
	usersCh     []int
	attemptsBuf []int // indices into the slot's cell list

	// events are callbacks keyed by absolute slot, run before the slot is
	// simulated (e.g. rate changes, schedule swaps). eventMin caches the
	// earliest registered slot so the executed-slot path pays no map work
	// while no callback is due.
	events   map[int][]func(*Simulator)
	eventMin int
	// stepping is true while step runs a slot's callbacks and traffic.
	stepping bool
	// eachSlot callbacks run at the start of every slot, after the slot's
	// At events and before packet generation — the observation point
	// co-simulations use to commit a quiesced control-plane adjustment so
	// it takes effect in the very slot it was detected. A plain EachSlot
	// consumer must observe every slot, so its presence disables slot
	// skipping; slotDemands consumers instead declare which slots they
	// need (EachSlotDemand), letting the stepper skip the rest.
	eachSlot    []func(*Simulator)
	slotDemands []slotDemand

	// Activity index for event-driven stepping. linkCellsQ maps each
	// queue index to the slot-in-frame indices of the link's cells;
	// busyCount[sif] counts links holding both a cell at sif and a
	// non-empty queue, and busyBits mirrors busyCount > 0 as a bitset for
	// next-set scans. Maintained on queue empty<->non-empty transitions
	// (markLinkBusy/markLinkIdle) and rebuilt by SetSchedule. A slot whose
	// slot-in-frame is not busy provably performs no transmission work.
	linkCellsQ [][]int
	busyCount  []int
	busyBits   []uint64

	// Run bookkeeping. runEnd is the absolute end slot of the current Run;
	// nextTick is the slot the stepper executes next. nextTick > now means
	// the stepper is inside a skipped idle gap, where Now() derives the
	// externally visible slot index from the clock.
	runEnd   int
	nextTick int
	// execSlots counts slots actually executed (skipped slots excluded) —
	// the skipping tests assert it stays well below the slot count.
	execSlots int

	// tracer records MAC slot events (nil: disabled, one pointer check on
	// the transmit hot path); metrics mirrors the swap-drop counter into
	// the run's unified registry.
	tracer  *obs.Tracer
	metrics *obs.Registry
	// winCollisions, when metrics are attached, is the per-slotframe
	// collision series the transmit hot path feeds (cached so the hot
	// path never touches the registry map).
	winCollisions *obs.WindowSeries

	// Drops counts queue-overflow losses.
	Drops int
	// Collisions counts transmissions lost to co-cell collisions (two
	// senders in the same slot and channel).
	Collisions int
	// HalfDuplexBlocks counts transmissions deferred because the sender was
	// already committed to another cell in the slot (a single half-duplex
	// radio transmits at most once per slot).
	HalfDuplexBlocks int
	// ReceiverMisses counts transmissions lost because the receiver was
	// transmitting itself or listening on a different channel in the slot.
	ReceiverMisses int
	// LossFailures counts transmissions lost to the Bernoulli channel.
	LossFailures int
	// Expired counts packets dropped after exhausting MaxRetries at a hop.
	Expired int
	// SwapDrops counts packets discarded by a SetSchedule hot swap because
	// their link lost all cells in the new schedule (they could never be
	// transmitted again).
	SwapDrops int
	// Unroutable counts released packets dropped immediately because the
	// simulator holds no cached route for their endpoint. Every release
	// appends a PacketRecord, and every record must end Delivered or
	// Dropped — a record in neither state deflates loss ratios silently.
	Unroutable int
}

type scheduledCell struct {
	cell schedule.Cell
	link topology.Link
	// sender/receiver are the link endpoints, resolved once at SetSchedule
	// time instead of two tree lookups per cell per slot; sIx/rIx are
	// their dense commitment-array indices and q the link's queue index,
	// so the transmit passes index arrays instead of hashing map keys.
	sender   topology.NodeID
	receiver topology.NodeID
	sIx, rIx int
	q        int
	// err defers an endpoint-resolution failure (a schedule referencing a
	// node outside the tree) to the slot that would have simulated the
	// cell, preserving the former lookup-time error behaviour.
	err error
}

// commitment records the one cell a half-duplex node is committed to in the
// current slot: the cell's index in the slot's cell list and whether the
// node is its sender.
type commitment struct {
	idx int
	tx  bool
}

// taskGen tracks packet generation for one task. Release instants are
// derived, never accumulated: release k of the current rate regime fires at
// base + k·period. An accumulated nextRelease += period compounds one
// rounding error per release, and over a long run with a non-representable
// period the drift crosses slot boundaries, shifting release slots off their
// exact instants.
type taskGen struct {
	task traffic.Task
	// base is the first release instant of the current rate regime;
	// released counts releases since base. SetTaskRate starts a new regime
	// anchored at the re-derived next instant. nextAt caches the derived
	// next instant (refresh keeps it in sync) so the per-slot generate scan
	// reads one float instead of re-deriving it.
	base     float64
	released int
	nextAt   float64
}

// nextRelease returns the derived instant of the task's next release.
func (g *taskGen) nextRelease(frameSlots int) float64 {
	return g.base + float64(g.released)*g.task.PeriodSlots(frameSlots)
}

// refresh re-derives the cached next-release instant after base or released
// moved.
func (g *taskGen) refresh(frameSlots int) { g.nextAt = g.nextRelease(frameSlots) }

// New builds a simulator. The schedule is installed separately with
// SetSchedule so callers can swap schedules mid-run (dynamic adjustment).
func New(cfg Config) (*Simulator, error) {
	if cfg.Tree == nil || cfg.Tasks == nil {
		return nil, errors.New("sim: nil tree or tasks")
	}
	if err := cfg.Frame.Validate(); err != nil {
		return nil, err
	}
	if cfg.PDR <= 0 || cfg.PDR > 1 {
		return nil, fmt.Errorf("sim: PDR %.3f outside (0,1]", cfg.PDR)
	}
	if err := cfg.Tasks.Validate(cfg.Tree); err != nil {
		return nil, err
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	}
	if maxQueue < 0 {
		return nil, fmt.Errorf("sim: negative MaxQueue %d", cfg.MaxQueue)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("sim: negative MaxRetries %d", cfg.MaxRetries)
	}
	s := &Simulator{
		cfg:         cfg,
		tree:        cfg.Tree,
		frame:       cfg.Frame,
		clock:       vclock.New(),
		rng:         vclock.NewStream(vclock.StreamSimMAC, cfg.Seed),
		cellsBySlot: make([][]scheduledCell, cfg.Frame.Slots),
		queueIx:     make(map[topology.Link]int),
		maxQueue:    maxQueue,
		taskState:   make(map[traffic.TaskID]*taskGen),
		events:      make(map[int][]func(*Simulator)),
		nodeIx:      make(map[topology.NodeID]int),
		usersCh:     make([]int, cfg.Frame.Channels),
		busyCount:   make([]int, cfg.Frame.Slots),
		busyBits:    make([]uint64, bitset.Words(cfg.Frame.Slots)),
	}
	for _, t := range cfg.Tasks.Tasks() { // Tasks() is sorted by ID
		st := &taskGen{task: t}
		st.refresh(cfg.Frame.Slots)
		s.taskState[t.ID] = st
		s.taskList = append(s.taskList, st)
		if err := s.cacheRoutes(t); err != nil {
			return nil, err
		}
	}
	s.recomputeReleaseMin()
	return s, nil
}

// cacheRoutes precomputes the task's uplink and downlink hop sequences.
// The task set is fixed at construction, so these two maps cover every
// packet the run can release.
func (s *Simulator) cacheRoutes(t traffic.Task) error {
	if s.upRoutes == nil {
		s.upRoutes = make(map[topology.NodeID][]topology.NodeID)
		s.downRoutes = make(map[topology.NodeID][]topology.NodeID)
		s.upLinkQ = make(map[topology.NodeID][]int)
		s.downLinkQ = make(map[topology.NodeID][]int)
	}
	if t.Source != topology.GatewayID {
		if _, ok := s.upRoutes[t.Source]; !ok {
			path, err := s.tree.PathToGateway(t.Source)
			if err != nil {
				return err
			}
			route := path[1:] // next hops: parent ... gateway
			s.upRoutes[t.Source] = route
			// Queue-index sequence: the source's own uplink queue, then
			// each intermediate hop's (the gateway receives, never relays
			// up, so the last route entry has no queue of its own).
			lq := make([]int, len(route))
			lq[0] = s.qindex(topology.Link{Child: t.Source, Direction: topology.Uplink})
			for i := 0; i+1 < len(route); i++ {
				lq[i+1] = s.qindex(topology.Link{Child: route[i], Direction: topology.Uplink})
			}
			s.upLinkQ[t.Source] = lq
		}
	}
	if t.Actuator != topology.GatewayID {
		if _, ok := s.downRoutes[t.Actuator]; !ok {
			path, err := s.tree.PathToGateway(t.Actuator)
			if err != nil {
				return err
			}
			// Reverse to gateway->...->actuator, dropping the gateway itself.
			route := make([]topology.NodeID, 0, len(path)-1)
			for i := len(path) - 2; i >= 0; i-- {
				route = append(route, path[i])
			}
			s.downRoutes[t.Actuator] = route
			lq := make([]int, len(route))
			for i, n := range route {
				lq[i] = s.qindex(topology.Link{Child: n, Direction: topology.Downlink})
			}
			s.downLinkQ[t.Actuator] = lq
		}
	}
	return nil
}

// qindex returns the link's stable queue index, assigning one on first
// sight. Called only on cold paths (route caching, schedule swaps); the
// hot path carries resolved indices.
func (s *Simulator) qindex(l topology.Link) int {
	if ix, ok := s.queueIx[l]; ok {
		return ix
	}
	ix := len(s.queueList)
	s.queueIx[l] = ix
	s.queueLink = append(s.queueLink, l)
	s.queueList = append(s.queueList, linkQueue{})
	return ix
}

// nodeIndex returns the node's dense commitment-array index, growing the
// arrays on first sight. Called only at SetSchedule time.
func (s *Simulator) nodeIndex(n topology.NodeID) int {
	if ix, ok := s.nodeIx[n]; ok {
		return ix
	}
	ix := len(s.commitOf)
	s.nodeIx[n] = ix
	s.commitOf = append(s.commitOf, commitment{})
	s.commitGen = append(s.commitGen, 0)
	return ix
}

// newPacket takes a zeroed packet from the free list, allocating only when
// the pool is empty.
func (s *Simulator) newPacket() *packet {
	if n := len(s.pool); n > 0 {
		p := s.pool[n-1]
		s.pool = s.pool[:n-1]
		*p = packet{}
		return p
	}
	return &packet{} //harplint:allow hotpath pool refill; amortized to zero across a steady-state run
}

// freePacket returns a delivered or dropped packet to the free list.
func (s *Simulator) freePacket(p *packet) { s.pool = append(s.pool, p) }

// Now returns the current absolute slot index. Inside a skipped idle gap
// the index is derived from the clock, clamped to the gap target, so
// foreign events on a shared clock observe exactly the slot index they
// would if every slot were executed.
func (s *Simulator) Now() int {
	if s.nextTick > s.now {
		if d := int(math.Ceil(s.clock.Now() - s.origin)); d > s.now {
			if d > s.nextTick {
				return s.nextTick
			}
			return d
		}
	}
	return s.now
}

// Clock returns the virtual clock slot events run on.
func (s *Simulator) Clock() *vclock.Clock { return s.clock }

// BindClock rebinds the simulator onto a shared clock (typically one a
// transport.Bus already schedules deliveries on), aligning the next slot
// with the next whole virtual slot boundary at or after the clock's
// current time. All later Run calls interleave slot events with the other
// consumers' events in timestamp order — the co-simulation of §VI-C. Must
// be called between Run calls, never from inside one.
func (s *Simulator) BindClock(c *vclock.Clock) error {
	if c == nil {
		return errors.New("sim: nil clock")
	}
	s.clock = c
	s.origin = math.Ceil(c.Now()) - float64(s.now)
	s.nextTick = s.now
	return nil
}

// SetTracer attaches a MAC-event tracer (nil detaches). In co-simulation
// it is the same tracer the transport and the agents emit to, bound to
// the shared clock, so slot events interleave with protocol events on
// one timeline.
func (s *Simulator) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetMetrics attaches the unified metrics registry the simulator mirrors
// its swap-drop tally and per-slotframe collision series into (nil
// detaches; the public counter fields are maintained either way).
func (s *Simulator) SetMetrics(m *obs.Registry) {
	s.metrics = m
	s.winCollisions = nil
	if m != nil {
		s.winCollisions = m.Series(obs.Key(obs.MetricWinCollisions), s.frame.Slots)
	}
}

// SetSchedule installs (or replaces) the active cell schedule. Queued
// packets are retained and continue over the new cells — except packets on
// a link the new schedule no longer serves at all, which are drained and
// counted in SwapDrops (a cell-less link would hold them forever). Safe to
// call mid-run from an At or EachSlot callback: the swap takes effect for
// the current slot's transmissions.
func (s *Simulator) SetSchedule(sched *schedule.Schedule) {
	s.cellsBySlot = make([][]scheduledCell, s.frame.Slots)
	served := make([]bool, len(s.queueList))
	lcq := make([][]int, len(s.queueList))
	maxChannel := -1
	for _, tx := range sched.Transmissions() {
		sc := scheduledCell{cell: tx.Cell, link: tx.Link}
		sc.sender, sc.receiver, sc.err = s.endpointsOf(tx.Link)
		sc.q = s.qindex(tx.Link)
		if sc.err == nil {
			sc.sIx = s.nodeIndex(sc.sender)
			sc.rIx = s.nodeIndex(sc.receiver)
		}
		s.cellsBySlot[tx.Cell.Slot] = append(s.cellsBySlot[tx.Cell.Slot], sc)
		if sc.q >= len(served) { // qindex may have grown the queue table
			served = append(served, make([]bool, sc.q+1-len(served))...)
			lcq = append(lcq, make([][]int, sc.q+1-len(lcq))...)
		}
		served[sc.q] = true
		lcq[sc.q] = append(lcq[sc.q], tx.Cell.Slot)
		if tx.Cell.Channel > maxChannel {
			maxChannel = tx.Cell.Channel
		}
	}
	if maxChannel+1 > len(s.usersCh) {
		s.usersCh = make([]int, maxChannel+1)
	}
	for _, cells := range s.cellsBySlot {
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].cell.Channel != cells[j].cell.Channel {
				return cells[i].cell.Channel < cells[j].cell.Channel
			}
			if cells[i].link.Direction != cells[j].link.Direction {
				return cells[i].link.Direction < cells[j].link.Direction
			}
			return cells[i].link.Child < cells[j].link.Child
		})
	}
	// Drain packets stranded on links the new schedule no longer serves,
	// in sorted link order so the emitted trace events are deterministic
	// (queue-index assignment order is route-cache order, not link order).
	var stranded []int
	for ix := range s.queueList {
		if s.queueList[ix].depth() > 0 && (ix >= len(served) || !served[ix]) {
			stranded = append(stranded, ix)
		}
	}
	sort.Slice(stranded, func(i, j int) bool {
		li, lj := s.queueLink[stranded[i]], s.queueLink[stranded[j]]
		if li.Child != lj.Child {
			return li.Child < lj.Child
		}
		return li.Direction < lj.Direction
	})
	if tr := s.tracer; tr.Enabled() {
		tr.Emit(obs.Ev(obs.KindMacSwap).WithSlot(s.now, obs.None).
			WithDetail(fmt.Sprintf("cells=%d stranded=%d", len(sched.Transmissions()), len(stranded))))
	}
	for _, ix := range stranded {
		l := s.queueLink[ix]
		q := &s.queueList[ix]
		for _, p := range q.buf[q.head:] {
			s.SwapDrops++
			s.metrics.Inc(obs.Key(obs.MetricSwapDrops))
			s.records[p.rec].Dropped = true
			if tr := s.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindMacSwapDrop).WithNode(int(l.Child)).WithSlot(s.now, obs.None).
					WithDetail(fmt.Sprintf("task %d", p.task)))
			}
		}
		q.reset()
	}
	// Rebuild the activity index for the new schedule: fresh cell lists,
	// then one busy transition per surviving non-empty queue.
	s.linkCellsQ = lcq
	for i := range s.busyCount {
		s.busyCount[i] = 0
	}
	for i := range s.busyBits {
		s.busyBits[i] = 0
	}
	for ix := range s.queueList {
		if s.queueList[ix].depth() > 0 {
			s.markLinkBusy(ix)
		}
	}
}

// markLinkBusy and markLinkIdle maintain the activity index on a link
// queue's empty<->non-empty transitions. Cost is O(cells of the link), paid
// per transition — not per slot. A queue index beyond linkCellsQ belongs to
// a link the current schedule never serves (no cells, nothing to mark).
func (s *Simulator) markLinkBusy(qi int) {
	if qi >= len(s.linkCellsQ) {
		return
	}
	for _, sif := range s.linkCellsQ[qi] {
		s.busyCount[sif]++
		if s.busyCount[sif] == 1 {
			bitset.Set(s.busyBits, sif)
		}
	}
}

func (s *Simulator) markLinkIdle(qi int) {
	if qi >= len(s.linkCellsQ) {
		return
	}
	for _, sif := range s.linkCellsQ[qi] {
		s.busyCount[sif]--
		if s.busyCount[sif] == 0 {
			bitset.Clear(s.busyBits, sif)
		}
	}
}

// SetTaskRate changes a task's packet generation rate immediately. The
// caller is responsible for adjusting the schedule (that is HARP's job, not
// the radio's). The next release instant is re-derived from the new period
// at the moment of the change — one new period after the last release, but
// never in the past — so a rate increase takes effect within one new period
// instead of waiting out the remainder of the old one.
func (s *Simulator) SetTaskRate(id traffic.TaskID, rate float64) error {
	st, ok := s.taskState[id]
	if !ok {
		return fmt.Errorf("sim: unknown task %d", id)
	}
	if rate <= 0 {
		return fmt.Errorf("sim: non-positive rate %.3f", rate)
	}
	lastRelease := st.nextRelease(s.frame.Slots) - st.task.PeriodSlots(s.frame.Slots)
	st.task.Rate = rate
	next := lastRelease + st.task.PeriodSlots(s.frame.Slots)
	if next < float64(s.now) {
		next = float64(s.now)
	}
	st.base = next
	st.released = 0
	st.refresh(s.frame.Slots)
	s.recomputeReleaseMin()
	return nil
}

// At registers a callback to run at the start of the given absolute slot.
// A slot the stepper has already begun — one before Now, or Now itself
// from inside that slot's callbacks — is clamped the way vclock clamps a
// past time: the callback runs at the next executed slot.
func (s *Simulator) At(slot int, fn func(*Simulator)) {
	next := s.now
	if s.stepping {
		next++
	}
	if slot < next {
		slot = next
	}
	if len(s.events) == 0 || slot < s.eventMin {
		s.eventMin = slot
	}
	s.events[slot] = append(s.events[slot], fn)
}

// EachSlot registers a callback run at the start of every slot, after the
// slot's At events and before packet generation. A schedule committed from
// here (SetSchedule) governs the same slot's transmissions. Registering a
// plain EachSlot consumer disables slot skipping — the callback must
// observe every slot; consumers that only need specific slots should use
// EachSlotDemand.
//
//harplint:allow unused every-slot reference of the TestSkipEquivalence* tests of sim and cosim
func (s *Simulator) EachSlot(fn func(*Simulator)) {
	s.eachSlot = append(s.eachSlot, fn)
}

// slotDemand pairs a per-slot callback with the demand function that tells
// the stepper which slots the consumer requires.
type slotDemand struct {
	fn   func(*Simulator)
	need func(next int) (int, bool)
}

// EachSlotDemand registers a per-slot callback like EachSlot together with
// a demand function the event-driven stepper consults when it computes the
// next active slot: need(next) returns the earliest slot >= next the
// consumer requires, or ok=false when it currently requires none. fn still
// runs at every executed slot. The co-simulation harness demands every
// slot only while an adjustment is in flight — its commit must land at the
// first slot boundary after the control plane quiesces — and nothing once
// quiesced, which is what lets idle data-plane gaps collapse into single
// clock events.
//
// The demand function is re-evaluated after every executed slot, so state
// feeding it must change only inside slot callbacks (At, EachSlot, the fns
// registered here) or between Run calls — never from a foreign event on a
// shared clock mid-gap, which the stepper would not notice until the next
// executed slot.
func (s *Simulator) EachSlotDemand(fn func(*Simulator), need func(next int) (int, bool)) {
	s.slotDemands = append(s.slotDemands, slotDemand{fn: fn, need: need})
}

// Run advances the simulation by n slots. Slots that provably perform no
// work are skipped: after each executed slot the stepper computes the next
// active slot (nextActiveSlot) and schedules exactly one clock event for
// it, advancing the slot counter in bulk across the gap. An idle slot
// touches no queue, no counter and draws no randomness — transmission
// attempts exist only for non-empty queues — so the skip is exact: records,
// counters and RNG streams are byte-identical to executing every slot
// (which registering an EachSlot consumer forces — the reference the
// equivalence tests diff against). On a shared clock, other consumers'
// events due inside a gap still run at their own times, and observe the
// same Now() they would if every slot were executed.
func (s *Simulator) Run(n int) error {
	if n <= 0 {
		return nil
	}
	s.runEnd = s.now + n
	// The stepper pulls the clock forward slot by slot instead of
	// scheduling a tick event per slot: one RunUntil call per executed slot
	// releases any foreign events due up to the slot boundary (and any due
	// inside a preceding skipped gap) in timestamp order, then the slot
	// runs — the same interleaving the event-per-slot scheme produced,
	// without a heap push and pop per slot.
	target := s.now
	for target < s.runEnd {
		s.nextTick = target // Now() derives gap slots from the clock
		s.clock.RunUntil(s.origin + float64(target))
		s.now = target
		s.nextTick = target
		if err := s.step(); err != nil {
			return err
		}
		target = s.nextActiveSlot(s.now, s.runEnd) // step advanced s.now
	}
	s.nextTick = s.runEnd
	s.clock.RunUntil(s.origin + float64(s.runEnd)) // trailing gap
	s.now = s.runEnd
	s.nextTick = s.now
	return nil
}

// nextActiveSlot returns the earliest slot in [from, end] that can perform
// work. A slot not chosen is provably inert: its slot-in-frame holds no
// scheduled cell with a queued packet (transmit would commit receivers to
// empty cells and return — no counter moves, no RNG draw), no task release
// is due, no At callback is registered, and no slot consumer demands it.
// end is returned when the rest of the run is idle.
func (s *Simulator) nextActiveSlot(from, end int) int {
	if len(s.eachSlot) > 0 {
		return from // plain EachSlot consumers observe every slot
	}
	next := end
	for i := range s.slotDemands {
		if at, ok := s.slotDemands[i].need(from); ok {
			if at < from {
				at = from
			}
			if at < next {
				next = at
			}
		}
	}
	if len(s.events) > 0 && s.eventMin < next {
		// A callback registered behind the cursor (from a foreign event
		// inside a skipped gap) is due at once.
		next = max(s.eventMin, from)
	}
	if !math.IsInf(s.releaseMin, 1) {
		at := int(math.Ceil(s.releaseMin))
		if at < from {
			at = from
		}
		if at < next {
			next = at
		}
	}
	if sif, ok := bitset.NextSetWrap(s.busyBits, s.frame.Slots, from%s.frame.Slots); ok {
		delta := sif - from%s.frame.Slots
		if delta < 0 {
			delta += s.frame.Slots
		}
		if at := from + delta; at < next {
			next = at
		}
	}
	return next
}

// RunSlotframes advances by n whole slotframes.
func (s *Simulator) RunSlotframes(n int) error {
	return s.Run(n * s.frame.Slots)
}

//harplint:hotpath
func (s *Simulator) step() error {
	s.execSlots++
	s.stepping = true
	// eventMin is the earliest registered slot, so the common
	// no-callback-due slot does no map work. Every slot at or before this
	// one is due, in slot order; At from these callbacks lands on a later
	// slot, so the loop ends.
	for len(s.events) > 0 && s.eventMin <= s.now {
		at := s.eventMin
		for _, fn := range s.events[at] {
			fn(s) //harplint:allow hotpath scripted scenario callbacks fire on a handful of slots
		}
		delete(s.events, at)
		s.eventMin = math.MaxInt
		for k := range s.events {
			if k < s.eventMin {
				s.eventMin = k
			}
		}
	}
	for _, fn := range s.eachSlot {
		fn(s) //harplint:allow hotpath co-simulation observation hook; audited by the cosim allocation tests
	}
	for i := range s.slotDemands {
		s.slotDemands[i].fn(s) //harplint:allow hotpath co-simulation observation hook; audited by the cosim allocation tests
	}
	s.generate()
	err := s.transmit()
	s.stepping = false
	if err != nil {
		return err
	}
	s.now++
	return nil
}

// generate releases new task packets whose release instant has passed. The
// cached release minimum makes the idle case O(1): when no task is due, no
// per-task state is touched at all.
func (s *Simulator) generate() {
	now := float64(s.now)
	if now < s.releaseMin {
		return
	}
	for _, st := range s.taskList {
		for now >= st.nextAt {
			s.release(st.task)
			st.released++
			st.refresh(s.frame.Slots)
		}
	}
	s.recomputeReleaseMin()
}

// recomputeReleaseMin refreshes the cached earliest next-release instant
// across all tasks. Called whenever any task's release state moves: after a
// generate pass that fired, on a rate change, at construction.
func (s *Simulator) recomputeReleaseMin() {
	min := math.Inf(1)
	for _, st := range s.taskList {
		if st.nextAt < min {
			min = st.nextAt
		}
	}
	s.releaseMin = min
}

// release creates a packet at the task's source and queues it on the first
// uplink.
func (s *Simulator) release(t traffic.Task) {
	rec := PacketRecord{Task: t.ID, CreatedAt: s.now}
	s.records = append(s.records, rec)
	idx := len(s.records) - 1

	if t.Source == topology.GatewayID {
		// Degenerate task: only the downlink leg exists.
		p := s.newPacket()
		p.task, p.createdAt, p.rec = t.ID, s.now, idx
		s.startDownlink(p, t.Actuator)
		return
	}
	route, ok := s.upRoutes[t.Source]
	if !ok {
		s.Unroutable++
		s.records[idx].Dropped = true
		return
	}
	p := s.newPacket()
	p.task = t.ID
	p.createdAt = s.now
	p.route = route
	p.linkQ = s.upLinkQ[t.Source]
	p.dir = topology.Uplink
	p.echo = true
	p.actuator = t.Actuator
	p.rec = idx
	s.enqueue(p.linkQ[0], p)
}

// startDownlink begins the gateway->actuator leg.
func (s *Simulator) startDownlink(p *packet, actuator topology.NodeID) {
	if actuator == topology.GatewayID {
		s.deliver(p)
		return
	}
	route, ok := s.downRoutes[actuator]
	if !ok {
		s.Unroutable++
		s.records[p.rec].Dropped = true
		s.freePacket(p)
		return
	}
	p.route = route
	p.linkQ = s.downLinkQ[actuator]
	p.hop = 0
	p.dir = topology.Downlink
	p.echo = false
	s.enqueue(p.linkQ[0], p)
}

func (s *Simulator) enqueue(qi int, p *packet) {
	q := &s.queueList[qi]
	if q.depth() >= s.maxQueue {
		s.Drops++
		s.records[p.rec].Dropped = true
		s.freePacket(p)
		return
	}
	if q.depth() == 0 {
		s.markLinkBusy(qi)
	}
	q.push(p)
}

func (s *Simulator) deliver(p *packet) {
	rec := &s.records[p.rec]
	rec.Delivered = true
	rec.DeliveredAt = s.now
	rec.Hops = p.hops
	s.freePacket(p)
}

// linkNodes returns the two endpoints of a link.
func (s *Simulator) linkNodes(l topology.Link) (topology.NodeID, topology.NodeID, error) {
	parent, err := s.tree.Parent(l.Child)
	if err != nil {
		return 0, 0, err
	}
	return l.Child, parent, nil
}

// endpointsOf returns (sender, receiver) of a link.
func (s *Simulator) endpointsOf(l topology.Link) (topology.NodeID, topology.NodeID, error) {
	child, parent, err := s.linkNodes(l)
	if err != nil {
		return 0, 0, err
	}
	if l.Direction == topology.Downlink {
		return parent, child, nil
	}
	return child, parent, nil
}

// transmit simulates all cells of the current slot. Each half-duplex node
// commits to at most one cell per slot: the first scheduled cell (in
// channel order) in which it either has a packet to send or is the
// designated receiver. Committed senders then transmit; a transmission
// succeeds iff its cell is uncontended, its receiver is tuned to it, and
// the Bernoulli channel lets it through. Nothing here assumes a
// collision-free schedule — baselines with conflicting schedules observe
// collisions and receiver misses, exactly the pathology Fig. 11 measures.
//
//harplint:hotpath
func (s *Simulator) transmit() error {
	slotInFrame := s.now % s.frame.Slots
	cells := s.cellsBySlot[slotInFrame]
	if len(cells) == 0 {
		return nil
	}
	// Bumping the epoch invalidates every stale commitment at once; an
	// entry is live only while its stamp equals the current epoch.
	s.commitEpoch++
	epoch := s.commitEpoch
	for i := range s.usersCh {
		s.usersCh[i] = 0
	}
	attempts := s.attemptsBuf[:0]
	// Pass 1: node commitments, in deterministic cell order.
	for i := range cells {
		sc := &cells[i]
		if sc.err != nil {
			return sc.err
		}
		if s.queueList[sc.q].depth() > 0 {
			if s.commitGen[sc.sIx] == epoch {
				s.HalfDuplexBlocks++
			} else {
				s.commitGen[sc.sIx] = epoch
				s.commitOf[sc.sIx] = commitment{idx: i, tx: true}
			}
		}
		// A receiver listens on its scheduled RX cell whether or not a
		// packet is coming, unless it already committed earlier this slot.
		if s.commitGen[sc.rIx] != epoch {
			s.commitGen[sc.rIx] = epoch
			s.commitOf[sc.rIx] = commitment{idx: i, tx: false}
		}
	}
	// Pass 2: committed transmissions and co-cell contention. All cells of
	// one slot share the slot coordinate, so the channel alone keys a cell.
	for i := range cells {
		sc := &cells[i]
		if s.commitGen[sc.sIx] == epoch {
			if c := s.commitOf[sc.sIx]; c.tx && c.idx == i {
				attempts = append(attempts, i)
				s.usersCh[sc.cell.Channel]++
			}
		}
	}
	s.attemptsBuf = attempts
	// Pass 3: outcomes.
	for _, ai := range attempts {
		sc := &cells[ai]
		if s.usersCh[sc.cell.Channel] > 1 {
			s.Collisions++
			s.winCollisions.Add(s.now, 1)
			if tr := s.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindMacCollision).WithNode(int(sc.sender)).WithPeer(int(sc.receiver)).
					WithSlot(s.now, sc.cell.Channel))
			}
			s.failAttempt(sc.q)
			continue // stays queued (unless retries exhausted)
		}
		rc := s.commitOf[sc.rIx]
		if s.commitGen[sc.rIx] != epoch || rc.tx || cells[rc.idx].cell != sc.cell {
			s.ReceiverMisses++
			if tr := s.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindMacMiss).WithNode(int(sc.sender)).WithPeer(int(sc.receiver)).
					WithSlot(s.now, sc.cell.Channel))
			}
			s.failAttempt(sc.q)
			continue
		}
		if s.cfg.PDR < 1 && s.rng.Float64() > s.cfg.PDR {
			s.LossFailures++
			if tr := s.tracer; tr.Enabled() {
				tr.Emit(obs.Ev(obs.KindMacLoss).WithNode(int(sc.sender)).WithPeer(int(sc.receiver)).
					WithSlot(s.now, sc.cell.Channel))
			}
			s.failAttempt(sc.q)
			continue
		}
		q := &s.queueList[sc.q]
		if q.depth() == 0 {
			continue
		}
		head := q.front()
		if tr := s.tracer; tr.Enabled() {
			tr.Emit(obs.Ev(obs.KindMacTx).WithNode(int(sc.sender)).WithPeer(int(sc.receiver)).
				WithSlot(s.now, sc.cell.Channel).WithDetail(fmt.Sprintf("task %d", head.task)))
		}
		s.advance(sc.q, head)
	}
	return nil
}

// failAttempt charges a failed transmission against the link's head packet
// and drops it once the MAC retry budget is exhausted.
func (s *Simulator) failAttempt(qi int) {
	if s.cfg.MaxRetries <= 0 {
		return
	}
	q := &s.queueList[qi]
	if q.depth() == 0 {
		return
	}
	p := q.front()
	p.attempts++
	if p.attempts > s.cfg.MaxRetries {
		q.pop()
		if q.depth() == 0 {
			s.markLinkIdle(qi)
		}
		s.Expired++
		s.records[p.rec].Dropped = true
		s.freePacket(p)
	}
}

// advance moves a successfully transmitted packet one hop.
func (s *Simulator) advance(qi int, p *packet) {
	// Pop from the queue head.
	q := &s.queueList[qi]
	if q.depth() == 0 || q.front() != p {
		return // defensive: queue mutated
	}
	q.pop()
	if q.depth() == 0 {
		s.markLinkIdle(qi)
	}
	p.hops++
	p.attempts = 0
	p.hop++

	if p.hop == len(p.route) {
		if p.dir == topology.Uplink && p.echo {
			s.startDownlink(p, p.actuator)
			return
		}
		s.deliver(p)
		return
	}
	// Queue on the next hop's link: linkQ runs in lockstep with route.
	s.enqueue(p.linkQ[p.hop], p)
}

// Records returns a copy of all packet records so far.
func (s *Simulator) Records() []PacketRecord {
	out := make([]PacketRecord, len(s.records))
	copy(out, s.records)
	return out
}

// LatenciesByTask groups delivered-packet latencies (in slots) per task.
func (s *Simulator) LatenciesByTask() map[traffic.TaskID][]float64 {
	out := make(map[traffic.TaskID][]float64)
	for _, r := range s.records {
		if r.Delivered {
			out[r.Task] = append(out[r.Task], float64(r.Latency()))
		}
	}
	return out
}

// ExecutedSlots returns the number of slots the stepper actually executed;
// with event-driven stepping it is the simulated slot count minus the
// skipped idle slots.
func (s *Simulator) ExecutedSlots() int { return s.execSlots }

// PendingPackets counts packets currently queued anywhere.
func (s *Simulator) PendingPackets() int {
	total := 0
	for i := range s.queueList {
		total += s.queueList[i].depth()
	}
	return total
}
