// Package topology models the routing tree of an industrial wireless
// network: a gateway at the root, relay/sensor/actuator nodes below it, and
// directed links between each node and its parent. It matches the network
// model of the HARP paper (§II-A): each link carries a *layer* attribute
// equal to the child endpoint's hop count to the gateway, and subtrees are
// the unit at which HARP partitions resources.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// NodeID identifies a node. The gateway is always GatewayID. An ID is
// non-negative and at most MaxNodeID. IDs may be sparse, but a Tree's slot
// table is sized by the largest ID it holds, so the generators in this
// package emit dense IDs.
type NodeID int

// GatewayID is the conventional identifier of the gateway (tree root).
const GatewayID NodeID = 0

// None is the sentinel "no node" value (e.g. the gateway's parent).
const None NodeID = -1

// Direction distinguishes the two directed links between a node and its
// parent. HARP handles the directions symmetrically but in disjoint
// super-partitions of the slotframe.
type Direction uint8

const (
	// Uplink is the child-to-parent direction (sensor data toward gateway).
	Uplink Direction = iota
	// Downlink is the parent-to-child direction (control traffic).
	Downlink
)

// Directions lists both directions in canonical order.
func Directions() [2]Direction { return [2]Direction{Uplink, Downlink} }

// String names the traffic direction (uplink or downlink).
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	default:
		return fmt.Sprintf("direction(%d)", uint8(d))
	}
}

// Link is a directed edge of the tree. It is identified by the child
// endpoint (each non-gateway node has exactly one parent) plus the
// direction. For Uplink the child is the sender; for Downlink the receiver.
type Link struct {
	Child     NodeID
	Direction Direction
}

// String renders the link as direction[child].
func (l Link) String() string { return fmt.Sprintf("%s[%d]", l.Direction, l.Child) }

// node is the internal per-node record.
type node struct {
	id       NodeID
	parent   NodeID
	children []NodeID // ascending
	depth    int      // hop count to gateway; 0 for the gateway
}

// Tree is a rooted routing tree. The zero value is not usable; construct
// with New. Tree is not safe for concurrent use: besides the mutations,
// the order queries (Nodes, NonLeaves, DeepestFirst, NodesAtDepth,
// MaxLayer, SubtreeMaxLayers) fill a cache on their first call after a
// mutation.
//
// Storage is dense. Node records sit in a slice by dense index in
// [0, IndexCap()): the gateway is always index 0, AddNode assigns the next
// index, and the index survives Reparent (node identity, not position,
// owns it). A slot table indexed by NodeID, sized by the largest ID added,
// maps an ID to its index (-1 for an absent ID), so every per-node query
// is one bounds-checked slice load. Downstream layers size flat slices by
// IndexCap and address per-node state by Index instead of map lookups.
// Nodes are never removed, so every index below IndexCap is live. Nodes,
// NonLeaves and DeepestFirst return shared, read-only slices: a caller that
// reorders or edits one must copy it first.
type Tree struct {
	nodes []node  // dense index -> record
	slot  []int32 // NodeID -> dense index, -1 for an absent ID

	// Orders derived from the structure, built on first use and dropped
	// (set to nil) by the mutation that changes them; a built order is
	// never nil and never written again, so the read-only slices handed
	// out stay valid. byDepth lists every node deepest first (ties by
	// ascending ID); depthEnd[d] is the end of depth d's run in it, which
	// starts at depthEnd[d+1].
	sorted    []NodeID
	nonLeaves []NodeID
	byDepth   []NodeID
	depthEnd  []int32
}

// MaxNodeID is the largest ID a tree accepts. The slot table holds one
// entry per ID up to the largest one added, so the bound caps it at 64 MiB.
const MaxNodeID NodeID = 1<<24 - 1

// Errors reported by tree mutations and queries.
var (
	ErrDuplicateNode = errors.New("topology: node already exists")
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrCycle         = errors.New("topology: reparenting would create a cycle")
	ErrGateway       = errors.New("topology: operation not valid for the gateway")
	ErrNodeID        = errors.New("topology: node ID outside [0, MaxNodeID]")
)

// New returns a tree containing only the gateway.
func New() *Tree {
	return &Tree{
		nodes: []node{{id: GatewayID, parent: None}},
		slot:  []int32{0},
	}
}

// reserve makes room for n nodes with IDs below n, so a generator that
// knows its size adds them without regrowing the slices.
func (t *Tree) reserve(n int) {
	if n > len(t.nodes) {
		t.nodes = slices.Grow(t.nodes, n-len(t.nodes))
	}
	if n > len(t.slot) {
		t.slot = slices.Grow(t.slot, n-len(t.slot))
	}
}

// rec returns the record of node id, or nil if it does not exist. The
// pointer is valid until the next AddNode.
func (t *Tree) rec(id NodeID) *node {
	if i := t.Index(id); i >= 0 {
		return &t.nodes[i]
	}
	return nil
}

// AddNode attaches a new node under parent. The new node's depth (and hence
// the layer of its links) is derived from the parent.
func (t *Tree) AddNode(id NodeID, parent NodeID) error {
	if id < 0 || id > MaxNodeID {
		return fmt.Errorf("%w: %d", ErrNodeID, id)
	}
	if t.Has(id) {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	pi := t.Index(parent)
	if pi < 0 {
		return fmt.Errorf("%w: parent %d", ErrUnknownNode, parent)
	}
	if n := int(id) + 1; n > len(t.slot) {
		t.slot = slices.Grow(t.slot, n-len(t.slot))
		for len(t.slot) < n {
			t.slot = append(t.slot, -1)
		}
	}
	t.slot[id] = int32(len(t.nodes))
	t.nodes = append(t.nodes, node{id: id, parent: parent, depth: t.nodes[pi].depth + 1})
	p := &t.nodes[pi]
	if len(p.children) == 0 {
		t.nonLeaves = nil
	}
	p.children = insertID(p.children, id)
	t.sorted, t.byDepth, t.depthEnd = nil, nil, nil
	return nil
}

// Reparent moves a node (with its whole subtree) under a new parent — the
// topology-change event triggered when a node selects a more reliable
// parent. Depths of all moved nodes are recomputed.
func (t *Tree) Reparent(id, newParent NodeID) error {
	n := t.rec(id)
	if n == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if id == GatewayID {
		return ErrGateway
	}
	np := t.rec(newParent)
	if np == nil {
		return fmt.Errorf("%w: new parent %d", ErrUnknownNode, newParent)
	}
	// The new parent must not be inside the moved subtree.
	for cur := newParent; cur != None; cur = t.rec(cur).parent {
		if cur == id {
			return fmt.Errorf("%w: %d under %d", ErrCycle, id, newParent)
		}
	}
	old := t.rec(n.parent)
	old.children = removeID(old.children, id)
	if len(old.children) == 0 || len(np.children) == 0 {
		t.nonLeaves = nil
	}
	n.parent = newParent
	np.children = insertID(np.children, id)
	t.refreshDepth(n, np.depth+1)
	t.byDepth, t.depthEnd = nil, nil
	return nil
}

func (t *Tree) refreshDepth(n *node, depth int) {
	n.depth = depth
	for _, c := range n.children {
		t.refreshDepth(t.rec(c), depth+1)
	}
}

// insertID inserts id into the ascending ids.
func insertID(ids []NodeID, id NodeID) []NodeID {
	k, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, k, id)
}

// removeID removes id from the ascending ids.
func removeID(ids []NodeID, id NodeID) []NodeID {
	if k, ok := slices.BinarySearch(ids, id); ok {
		return slices.Delete(ids, k, k+1)
	}
	return ids
}

// Has reports whether the node exists.
func (t *Tree) Has(id NodeID) bool { return t.Index(id) >= 0 }

// Len returns the number of nodes, including the gateway.
func (t *Tree) Len() int { return len(t.nodes) }

// Index returns the node's stable dense index in [0, IndexCap()), or -1 if
// the node does not exist. The gateway is always 0. The index is stable
// across Reparent.
func (t *Tree) Index(id NodeID) int {
	if uint(id) < uint(len(t.slot)) {
		return int(t.slot[id])
	}
	return -1
}

// IndexCap returns the exclusive upper bound of dense indices: flat
// per-node slices sized IndexCap can be addressed by Index for every
// current node. Nodes are never removed, so IndexCap equals Len.
func (t *Tree) IndexCap() int { return len(t.nodes) }

// NodeAt returns the node occupying dense index i, or None if i is out of
// range.
func (t *Tree) NodeAt(i int) NodeID {
	if uint(i) < uint(len(t.nodes)) {
		return t.nodes[i].id
	}
	return None
}

// Parent returns a node's parent (None for the gateway).
func (t *Tree) Parent(id NodeID) (NodeID, error) {
	if i := t.Index(id); i >= 0 {
		return t.nodes[i].parent, nil
	}
	return None, fmt.Errorf("%w: %d", ErrUnknownNode, id)
}

// Children returns a sorted copy of a node's children.
func (t *Tree) Children(id NodeID) []NodeID {
	n := t.rec(id)
	if n == nil {
		return nil
	}
	out := make([]NodeID, len(n.children))
	copy(out, n.children)
	return out
}

// AppendChildren appends a node's children, in ascending order, to dst.
func (t *Tree) AppendChildren(dst []NodeID, id NodeID) []NodeID {
	if n := t.rec(id); n != nil {
		dst = append(dst, n.children...)
	}
	return dst
}

// IsLeaf reports whether the node has no children.
func (t *Tree) IsLeaf(id NodeID) bool {
	i := t.Index(id)
	return i >= 0 && len(t.nodes[i].children) == 0
}

// Depth returns a node's hop count to the gateway (gateway: 0).
func (t *Tree) Depth(id NodeID) (int, error) {
	if i := t.Index(id); i >= 0 {
		return t.nodes[i].depth, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
}

// LinkLayer returns the layer of the links between node id and its children
// — l(V_i) in the paper — which equals depth(id)+1. The gateway's link layer
// is 1.
func (t *Tree) LinkLayer(id NodeID) (int, error) {
	if i := t.Index(id); i >= 0 {
		return t.nodes[i].depth + 1, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
}

// MaxLayer returns the largest link layer in the whole tree (the network's
// hop depth).
func (t *Tree) MaxLayer() int {
	t.depthOrder()
	return len(t.depthEnd) - 2
}

// SubtreeMaxLayer returns l(G_Vi): the largest link layer within the subtree
// rooted at id. For a leaf this is its own depth (the layer of its uplink).
func (t *Tree) SubtreeMaxLayer(id NodeID) (int, error) {
	n := t.rec(id)
	if n == nil {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return t.deepestBelow(n), nil
}

func (t *Tree) deepestBelow(n *node) int {
	deepest := n.depth
	for _, c := range n.children {
		if d := t.deepestBelow(t.rec(c)); d > deepest {
			deepest = d
		}
	}
	return deepest
}

// SubtreeMaxLayers returns SubtreeMaxLayer for every node at once, indexed
// by dense index: one deepest-first pass in which every node hands its
// value to its parent.
func (t *Tree) SubtreeMaxLayers() []int {
	out := make([]int, len(t.nodes))
	for i := range t.nodes {
		out[i] = t.nodes[i].depth
	}
	for _, id := range t.depthOrder() {
		i := t.slot[id]
		if p := t.nodes[i].parent; p != None {
			if pi := t.slot[p]; out[i] > out[pi] {
				out[pi] = out[i]
			}
		}
	}
	return out
}

// Subtree returns the node IDs of the subtree rooted at id (including id),
// sorted.
func (t *Tree) Subtree(id NodeID) ([]NodeID, error) {
	n := t.rec(id)
	if n == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	var out []NodeID
	var walk func(*node)
	walk = func(n *node) {
		out = append(out, n.id)
		for _, c := range n.children {
			walk(t.rec(c))
		}
	}
	walk(n)
	slices.Sort(out)
	return out, nil
}

// Nodes returns all node IDs, sorted. The slice is shared and read-only:
// it is cached until the next AddNode.
func (t *Tree) Nodes() []NodeID {
	if t.sorted == nil {
		out := make([]NodeID, 0, len(t.nodes))
		for id, i := range t.slot {
			if i >= 0 {
				out = append(out, NodeID(id))
			}
		}
		t.sorted = out
	}
	return t.sorted[:len(t.sorted):len(t.sorted)]
}

// NonLeaves returns all nodes with at least one child, sorted. These are the
// nodes that own a HARP partition. The slice is shared and read-only: it is
// cached until a mutation gives a leaf its first child or takes a node's
// last one.
func (t *Tree) NonLeaves() []NodeID {
	if t.nonLeaves == nil {
		out := make([]NodeID, 0)
		for id, i := range t.slot {
			if i >= 0 && len(t.nodes[i].children) > 0 {
				out = append(out, NodeID(id))
			}
		}
		t.nonLeaves = out
	}
	return t.nonLeaves[:len(t.nonLeaves):len(t.nonLeaves)]
}

// DeepestFirst returns all node IDs ordered by depth, deepest first, with
// ties in ascending ID order — the bottom-up order of interface
// generation. The slice is shared and read-only: it is cached until the
// next AddNode or Reparent.
func (t *Tree) DeepestFirst() []NodeID {
	s := t.depthOrder()
	return s[:len(s):len(s)]
}

// depthOrder builds the deepest-first order if a mutation dropped it: a
// counting sort by depth over the slot table, which is already in ID order.
func (t *Tree) depthOrder() []NodeID {
	if t.byDepth != nil {
		return t.byDepth
	}
	maxDepth := 0
	for i := range t.nodes {
		maxDepth = max(maxDepth, t.nodes[i].depth)
	}
	end := make([]int32, maxDepth+2)
	for i := range t.nodes {
		end[t.nodes[i].depth]++
	}
	for d := maxDepth; d >= 0; d-- {
		end[d] += end[d+1]
	}
	next := make([]int32, maxDepth+1)
	copy(next, end[1:])
	out := make([]NodeID, len(t.nodes))
	for id, i := range t.slot {
		if i >= 0 {
			d := t.nodes[i].depth
			out[next[d]] = NodeID(id)
			next[d]++
		}
	}
	t.byDepth, t.depthEnd = out, end
	return out
}

// NodesAtDepth returns all nodes with the given hop count, sorted.
func (t *Tree) NodesAtDepth(depth int) []NodeID {
	order := t.depthOrder()
	if depth < 0 || depth+1 >= len(t.depthEnd) {
		return nil
	}
	return slices.Clone(order[t.depthEnd[depth+1]:t.depthEnd[depth]])
}

// PathToGateway returns the node sequence from id up to (and including) the
// gateway.
func (t *Tree) PathToGateway(id NodeID) ([]NodeID, error) {
	n := t.rec(id)
	if n == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	path := make([]NodeID, 0, n.depth+1)
	for cur := id; cur != None; cur = t.rec(cur).parent {
		path = append(path, cur)
	}
	return path, nil
}

// Ancestors returns the strict ancestors of id, nearest first.
func (t *Tree) Ancestors(id NodeID) ([]NodeID, error) {
	path, err := t.PathToGateway(id)
	if err != nil {
		return nil, err
	}
	return path[1:], nil
}

// Validate checks structural invariants: exactly one root (the gateway),
// parent/child symmetry, sorted child lists, correct depths, a consistent
// slot table, and reachability of every node from the gateway. Intended
// for tests and for guarding deserialized input.
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 || t.Index(GatewayID) != 0 {
		return errors.New("topology: gateway must hold dense index 0")
	}
	if g := t.nodes[0]; g.parent != None || g.depth != 0 {
		return errors.New("topology: gateway must be the root at depth 0")
	}
	// Slot table: every record owns exactly one slot and every slot is
	// owned.
	owned := 0
	for id, i := range t.slot {
		if i < 0 {
			continue
		}
		owned++
		if int(i) >= len(t.nodes) || t.nodes[i].id != NodeID(id) {
			return fmt.Errorf("topology: node %d index %d out of sync", id, i)
		}
	}
	if owned != len(t.nodes) {
		return fmt.Errorf("topology: %d slots for %d nodes", owned, len(t.nodes))
	}
	edges := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		edges += len(n.children)
		if !slices.IsSorted(n.children) {
			return fmt.Errorf("topology: node %d children %v not sorted", n.id, n.children)
		}
		if n.id == GatewayID {
			continue
		}
		p := t.rec(n.parent)
		if p == nil {
			return fmt.Errorf("topology: node %d has unknown parent %d", n.id, n.parent)
		}
		if _, ok := slices.BinarySearch(p.children, n.id); !ok {
			return fmt.Errorf("topology: node %d missing from parent %d children", n.id, n.parent)
		}
		if n.depth != p.depth+1 {
			return fmt.Errorf("topology: node %d depth %d, parent depth %d", n.id, n.depth, p.depth)
		}
	}
	if edges != len(t.nodes)-1 {
		return fmt.Errorf("topology: %d child entries for %d non-gateway nodes", edges, len(t.nodes)-1)
	}
	// Reachability: a walk from the gateway must count every node.
	reached := 0
	stack := []NodeID{GatewayID}
	for len(stack) > 0 && reached <= len(t.nodes) {
		n := t.rec(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		reached++
		stack = append(stack, n.children...)
	}
	if reached != len(t.nodes) {
		return fmt.Errorf("topology: %d of %d nodes reached from gateway", reached, len(t.nodes))
	}
	return nil
}

// Clone returns a deep copy of the tree, preserving dense indices. The
// cached orders are shared: they are never written once built.
func (t *Tree) Clone() *Tree {
	c := *t
	c.nodes = slices.Clone(t.nodes)
	c.slot = slices.Clone(t.slot)
	kids := make([]NodeID, 0, len(t.nodes))
	for i := range c.nodes {
		n := &c.nodes[i]
		start := len(kids)
		kids = append(kids, n.children...)
		n.children = kids[start:len(kids):len(kids)]
	}
	return &c
}

// String renders the tree as an indented outline, one node per line.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(id NodeID, indent int)
	walk = func(id NodeID, indent int) {
		fmt.Fprintf(&b, "%s%d\n", strings.Repeat("  ", indent), id) //harplint:allow errcheck strings.Builder writes cannot fail
		for _, c := range t.rec(id).children {
			walk(c, indent+1)
		}
	}
	walk(GatewayID, 0)
	return b.String()
}
