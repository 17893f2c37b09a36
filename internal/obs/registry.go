package obs

import (
	"hash/maphash"
	"sort"
)

// MetricKey identifies one metric series: the node and hierarchy layer
// the value is attributed to (None for channel- or run-global series)
// plus a dotted kind string naming what is counted.
type MetricKey struct {
	// Node is the owning node ID, or None for a global series.
	Node int
	// Layer is the hierarchy layer, or None when not layer-scoped.
	Layer int
	// Kind names the series ("transport.dropped", "agent.escalations").
	Kind string
}

// Key returns the run-global series key for kind.
func Key(kind string) MetricKey { return MetricKey{Node: None, Layer: None, Kind: kind} }

// NodeKey returns the per-node series key for kind.
func NodeKey(node int, kind string) MetricKey {
	return MetricKey{Node: node, Layer: None, Kind: kind}
}

// LayerKey returns the per-(node, layer) series key for kind.
func LayerKey(node, layer int, kind string) MetricKey {
	return MetricKey{Node: node, Layer: layer, Kind: kind}
}

// Metric kinds maintained by the runtime packages. The transport series
// subsume the legacy Bus counters (FaultStats, Delivered, Participants);
// the Bus accessors are now views over these.
const (
	// MetricDelivered counts delivered application messages (ACKs are
	// control traffic and excluded), the legacy Bus.Delivered.
	MetricDelivered = "coap.delivered"
	// MetricNodeTx counts messages a node put on the channel; with
	// MetricNodeRx it defines the Table II participant set.
	MetricNodeTx = "coap.node_tx"
	// MetricNodeRx counts messages delivered to a node.
	MetricNodeRx = "coap.node_rx"
	// MetricClassPrefix prefixes the per-class delivery tallies; the full
	// kind is the prefix plus the "METHOD path" class name.
	MetricClassPrefix = "coap.rx "

	// MetricDropped counts deliveries lost to injected Bernoulli loss.
	MetricDropped = "transport.dropped"
	// MetricDuplicated counts extra copies injected by duplication faults.
	MetricDuplicated = "transport.duplicated"
	// MetricCrashDropped counts deliveries and sends discarded because
	// the node was crashed.
	MetricCrashDropped = "transport.crash_dropped"
	// MetricRetransmissions counts CON copies retransmitted after an ACK
	// timeout.
	MetricRetransmissions = "transport.retransmissions"
	// MetricDupSuppressed counts confirmable deliveries suppressed by the
	// receiver's Message-ID dedup cache.
	MetricDupSuppressed = "transport.dup_suppressed"
	// MetricAcksDelivered counts ACK deliveries (control traffic).
	MetricAcksDelivered = "transport.acks_delivered"
	// MetricGiveUps counts exchanges abandoned after MAX_RETRANSMIT.
	MetricGiveUps = "transport.give_ups"
	// MetricDecodeErrors counts deliveries whose payload failed to decode.
	MetricDecodeErrors = "transport.decode_errors"

	// MetricSwapDrops counts packets drained at a schedule hot-swap
	// because the new schedule has no cell for their link (sim.SwapDrops,
	// surfaced per run in the harpbench report).
	MetricSwapDrops = "mac.swap_drops"
	// MetricEscalations counts demand escalations per (node, layer).
	MetricEscalations = "agent.escalations"
	// MetricCommits counts committed partition layouts per (node, layer).
	MetricCommits = "agent.commits"
	// MetricRejections counts demands rejected back to their requester
	// after a give-up or an explicit parent rejection.
	MetricRejections = "agent.rejections"

	// MetricKeepalives counts background keepalive probes put on the
	// channel by the failure detector (control traffic, never tallied in
	// the delivery counters).
	MetricKeepalives = "transport.keepalives"
	// MetricLinkDropped counts deliveries discarded because the link
	// between the endpoints was scripted down (chaos link flaps).
	MetricLinkDropped = "transport.link_dropped"
	// MetricSuspects counts suspect transitions of the failure detector.
	MetricSuspects = "agent.suspects"
	// MetricDeaths counts dead declarations of the failure detector.
	MetricDeaths = "agent.deaths"
	// MetricAdoptions counts orphan re-homings after a parent death.
	MetricAdoptions = "agent.adoptions"
	// MetricAborts counts stale in-flight adjustments rolled back by the
	// adjustment watchdog.
	MetricAborts = "agent.aborts"
	// MetricStrayReports counts interface reports an agent dropped because
	// the sender is not one of its children (a child it dropped as dead
	// that re-reported before its readmission).
	MetricStrayReports = "agent.stray_reports"
)

// Distribution kinds: run-cumulative power-of-two histograms (Dist) and
// fixed-width windowed series (Series). Latency distributions are in
// milli-slots (virtual-time delta × 1000, truncated); see dist.go.
const (
	// MetricEscCommitMs is the escalation→commit latency distribution:
	// from an agent hosting an escalated child component to the commit
	// of the resulting partition layout, per (node, layer) adjustment.
	MetricEscCommitMs = "agent.esc_commit_ms"
	// MetricDetectAdoptMs is the detect→adopt latency distribution: from
	// the failure detector first suspecting a node to each orphan of
	// that node being re-homed under a new parent.
	MetricDetectAdoptMs = "agent.detect_adopt_ms"
	// MetricConRttMs is the CON round-trip distribution: first
	// transmission of a confirmable exchange to its settling ACK.
	MetricConRttMs = "transport.con_rtt_ms"
	// MetricConRetx is the retransmissions-per-exchange distribution,
	// one observation per finished confirmable exchange (settled or
	// given up).
	MetricConRetx = "transport.con_retx_per_exchange"
	// MetricDisruptionMs is the adjustment disruption-window
	// distribution (trigger slot to commit slot), in milli-slots.
	MetricDisruptionMs = "cosim.disruption_ms"

	// MetricWinCollisions counts MAC collisions per slotframe window.
	MetricWinCollisions = "mac.win_collisions"
	// MetricWinQueueDepth samples the MAC's total queued packets at each
	// slotframe-window boundary.
	MetricWinQueueDepth = "mac.win_queue_depth"
	// MetricWinPending samples the fleet's in-flight adjustment count
	// (layers with a hosted-but-uncommitted layout) at each window
	// boundary.
	MetricWinPending = "agent.win_pending_adjustments"
)

// Registry is the unified metrics store: counters, distributions and
// windowed series keyed by MetricKey. Like the tracer it is
// single-goroutine (all writers run on one virtual clock) and nil-safe:
// every method is a no-op (or zero) on the nil receiver, so optional
// consumers need no guards.
//
// Counters are reached two ways. Add/Inc/Counter take the key and pay one
// hash of it per call — fine for the agents' per-adjustment tallies. A
// site that counts per message keeps a Cell next to the key and goes
// through AddCell, which after the first call is an index into the
// counter slab: no hash, no allocation. Both see the same counters.
type Registry struct {
	// counters holds every counter written since the last Reset, key and
	// value side by side, in first-write order. index is the open-addressed
	// hash table over it: an entry is a slab position plus one (zero is
	// empty), its length a power of two at least twice len(counters).
	// A counter's slab position is stable until Reset, which is what a
	// Cell caches; the values are not boxed one by one.
	counters []counter
	index    []uint32
	seed     maphash.Seed
	// gen is the generation cells are stamped with. Reset bumps it, so a
	// cell resolved before a Reset re-resolves (and re-lists its counter)
	// on its next write. It starts at 1: the zero Cell is unresolved.
	gen uint32
	// dists and series are the distribution metrics. Unlike the counters
	// they are run-cumulative: Reset leaves them alone.
	dists  map[MetricKey]*Hist
	series map[MetricKey]*WindowSeries
}

// counter is one slab entry.
type counter struct {
	key MetricKey
	val int64
}

// Cell caches where one counter lives in a registry, for sites that count
// once per message. It is a cache slot, not a handle: the zero Cell is
// valid (unresolved), holding one costs the registry nothing and does not
// list the counter, and every use names the key again (AddCell) so the
// cell can re-resolve after a Reset. A cell must only ever be used with
// one key on one registry.
type Cell struct {
	slot uint32
	gen  uint32
}

// minIndex is the hash table's initial length.
const minIndex = 64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		index:  make([]uint32, minIndex),
		seed:   maphash.MakeSeed(),
		gen:    1,
		dists:  make(map[MetricKey]*Hist),
		series: make(map[MetricKey]*WindowSeries),
	}
}

// hash spreads a key over the table. The seed is per registry and random,
// which is harmless: nothing is ever reported in table order (the slab is
// in first-write order and every view sorts).
func (r *Registry) hash(k MetricKey) uint64 {
	h := maphash.String(r.seed, k.Kind)
	h ^= uint64(k.Node)*0x9E3779B97F4A7C15 + uint64(k.Layer)*0xC2B2AE3D27D4EB4F
	return h ^ h>>29
}

// find returns k's slab position, or -1 if k was not written since the
// last Reset.
func (r *Registry) find(k MetricKey) int {
	mask := uint64(len(r.index) - 1)
	for i := r.hash(k) & mask; ; i = (i + 1) & mask {
		e := r.index[i]
		if e == 0 {
			return -1
		}
		if r.counters[e-1].key == k {
			return int(e - 1)
		}
	}
}

// slot returns k's slab position, listing the counter (at zero) if k was
// not written since the last Reset.
func (r *Registry) slot(k MetricKey) int {
	if at := r.find(k); at >= 0 {
		return at
	}
	if 2*(len(r.counters)+1) > len(r.index) {
		// Cold: the table doubles and is refilled from the slab.
		r.index = make([]uint32, 2*len(r.index)) //harplint:allow hotpath table growth is amortised over the counters it makes room for
		for at := range r.counters {
			r.place(at)
		}
	}
	r.counters = append(r.counters, counter{key: k})
	r.place(len(r.counters) - 1)
	return len(r.counters) - 1
}

// place enters slab position at into the first free table entry of its
// key's probe sequence.
func (r *Registry) place(at int) {
	mask := uint64(len(r.index) - 1)
	i := r.hash(r.counters[at].key) & mask
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = uint32(at + 1)
}

// Inc adds one to a counter.
func (r *Registry) Inc(k MetricKey) { r.Add(k, 1) }

// Add adds delta to a counter.
//
//harplint:hotpath
func (r *Registry) Add(k MetricKey, delta int64) {
	if r == nil {
		return
	}
	r.counters[r.slot(k)].val += delta
}

// AddCell adds delta to counter k through c, the cell the caller keeps for
// k. A cell resolved since the last Reset is a direct index; otherwise
// (the zero Cell, or the first write after a Reset) it resolves by key
// first, exactly as Add would.
//
//harplint:hotpath
func (r *Registry) AddCell(c *Cell, k MetricKey, delta int64) {
	if r == nil {
		return
	}
	if c.gen != r.gen {
		c.slot, c.gen = uint32(r.slot(k)), r.gen
	}
	r.counters[c.slot].val += delta
}

// Counter returns a counter's value (zero if never written).
func (r *Registry) Counter(k MetricKey) int64 {
	if r == nil {
		return 0
	}
	if at := r.find(k); at >= 0 {
		return r.counters[at].val
	}
	return 0
}

// Dist returns the power-of-two histogram for k, creating it on first
// use. On the nil receiver it returns nil — and the nil *Hist is itself
// a no-op observer — so call sites may chain r.Dist(k).Observe(v)
// unguarded, and hot paths may cache the pointer once at setup.
func (r *Registry) Dist(k MetricKey) *Hist {
	if r == nil {
		return nil
	}
	h := r.dists[k]
	if h == nil {
		h = &Hist{}
		r.dists[k] = h
	}
	return h
}

// DistStat returns a copy of k's histogram and whether it exists.
func (r *Registry) DistStat(k MetricKey) (Hist, bool) {
	if r == nil {
		return Hist{}, false
	}
	h, ok := r.dists[k]
	if !ok {
		return Hist{}, false
	}
	return *h, true
}

// Series returns the windowed series for k, creating it with the given
// window width (slots) on first use. Nil-receiver behaviour matches
// Dist: a nil registry yields a nil, no-op series.
func (r *Registry) Series(k MetricKey, width int) *WindowSeries {
	if r == nil {
		return nil
	}
	s := r.series[k]
	if s == nil {
		s = &WindowSeries{Width: width}
		r.series[k] = s
	}
	return s
}

// SeriesStat returns a copy of k's windowed series values and its
// width, and whether the series exists.
func (r *Registry) SeriesStat(k MetricKey) (width int, vals []int64, ok bool) {
	if r == nil {
		return 0, nil, false
	}
	s, found := r.series[k]
	if !found {
		return 0, nil, false
	}
	return s.Width, s.Values(), true
}

// Reset clears every counter. The co-simulation calls this at a trigger
// so each adjustment's overhead is measured on its own — note it clears
// them wholesale (transport, agent and MAC series alike), exactly as
// the legacy Bus.ResetCounters cleared all its tallies, and outdates every
// Cell: each re-resolves on its next write. The distribution
// metrics (Dist, Series) are deliberately NOT cleared: they are
// run-cumulative — latency histograms and windowed series must span
// every adjustment of the run to support SLO verdicts and p50/p99 bench
// keys.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.counters = r.counters[:0]
	clear(r.index)
	r.gen++
}

// CounterKeys returns every counter key with a non-zero value, sorted by
// (Kind, Node, Layer) for deterministic reporting.
func (r *Registry) CounterKeys() []MetricKey {
	if r == nil {
		return nil
	}
	keys := make([]MetricKey, 0, len(r.counters))
	for _, c := range r.counters {
		if c.val != 0 {
			keys = append(keys, c.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Layer < keys[j].Layer
	})
	return keys
}

// SumKind sums every counter of the given kind across nodes and layers.
func (r *Registry) SumKind(kind string) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for _, c := range r.counters {
		if c.key.Kind == kind {
			total += c.val
		}
	}
	return total
}

// Nodes returns the distinct node IDs holding a non-zero counter of any
// of the given kinds, sorted ascending.
func (r *Registry) Nodes(kinds ...string) []int {
	if r == nil {
		return nil
	}
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	seen := make(map[int]bool)
	for _, c := range r.counters {
		if c.val != 0 && c.key.Node != None && want[c.key.Kind] {
			seen[c.key.Node] = true
		}
	}
	nodes := make([]int, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// lessNLK is the exporter ordering contract: keys sort by node, then
// layer, then kind. (CounterKeys keeps its older kind-major order for
// the report tables; exporters use this one.)
func lessNLK(a, b MetricKey) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	return a.Kind < b.Kind
}

// CounterSample is one counter in a snapshot.
type CounterSample struct {
	Key   MetricKey
	Value int64
}

// DistSample is one power-of-two histogram in a snapshot (a copy).
type DistSample struct {
	Key  MetricKey
	Hist Hist
}

// SeriesSample is one windowed series in a snapshot (values copied).
type SeriesSample struct {
	Key    MetricKey
	Width  int
	Values []int64
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by (node, layer, kind). It shares no storage with the registry,
// so it stays valid while the run keeps writing.
type Snapshot struct {
	Counters []CounterSample
	Dists    []DistSample
	Series   []SeriesSample
}

// Snapshot copies the registry. Iteration order of every section is
// pinned to (node, layer, kind) ascending — the contract exporters
// (Prometheus text, JSON series) rely on for golden-diff stability.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	s.Counters = make([]CounterSample, 0, len(r.counters))
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Key: c.key, Value: c.val})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return lessNLK(s.Counters[i].Key, s.Counters[j].Key) })
	s.Dists = make([]DistSample, 0, len(r.dists))
	for k, h := range r.dists {
		s.Dists = append(s.Dists, DistSample{Key: k, Hist: *h})
	}
	sort.Slice(s.Dists, func(i, j int) bool { return lessNLK(s.Dists[i].Key, s.Dists[j].Key) })
	s.Series = make([]SeriesSample, 0, len(r.series))
	for k, w := range r.series {
		s.Series = append(s.Series, SeriesSample{Key: k, Width: w.Width, Values: w.Values()})
	}
	sort.Slice(s.Series, func(i, j int) bool { return lessNLK(s.Series[i].Key, s.Series[j].Key) })
	return s
}
