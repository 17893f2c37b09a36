package topology

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// treeJSON is the wire form of a Tree: an edge list plus the node count, so
// files are diff-friendly and order-independent.
type treeJSON struct {
	Nodes int        `json:"nodes"`
	Edges []edgeJSON `json:"edges"`
}

type edgeJSON struct {
	Child  NodeID `json:"child"`
	Parent NodeID `json:"parent"`
}

// MarshalJSON encodes the tree as a sorted edge list.
func (t *Tree) MarshalJSON() ([]byte, error) {
	out := treeJSON{Nodes: t.Len()}
	for _, id := range t.Nodes() {
		if id == GatewayID {
			continue
		}
		p, err := t.Parent(id)
		if err != nil {
			return nil, err
		}
		out.Edges = append(out.Edges, edgeJSON{Child: id, Parent: p})
	}
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i].Child < out.Edges[j].Child })
	return json.Marshal(out)
}

// EncodeJSON streams the same wire form MarshalJSON produces (sorted edge
// list, one edge object per line) without materialising the whole document
// in memory — at 50k+ nodes the marshalled string would dwarf the tree
// itself. The output unmarshals through UnmarshalJSON unchanged.
func (t *Tree) EncodeJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"nodes\":%d,\"edges\":[", t.Len()); err != nil {
		return err
	}
	first := true
	for _, id := range t.Nodes() {
		if id == GatewayID {
			continue
		}
		p, err := t.Parent(id)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep = "\n"
			first = false
		}
		if _, err := fmt.Fprintf(bw, "%s{\"child\":%d,\"parent\":%d}", sep, id, p); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// UnmarshalJSON decodes an edge list, re-attaching children in dependency
// order so parents always exist before their children, and validates the
// result.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var in treeJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("topology: decode: %w", err)
	}
	fresh := New()
	fresh.reserve(len(in.Edges) + 1)
	pending := append([]edgeJSON(nil), in.Edges...)
	for len(pending) > 0 {
		progressed := false
		rest := pending[:0]
		for _, e := range pending {
			if fresh.Has(e.Parent) {
				if err := fresh.AddNode(e.Child, e.Parent); err != nil {
					return fmt.Errorf("topology: decode: %w", err)
				}
				progressed = true
			} else {
				rest = append(rest, e)
			}
		}
		if !progressed {
			return fmt.Errorf("topology: decode: %d edges unreachable from gateway", len(rest))
		}
		pending = rest
	}
	if in.Nodes != fresh.Len() {
		return fmt.Errorf("topology: decode: header says %d nodes, edges give %d", in.Nodes, fresh.Len())
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	*t = *fresh
	return nil
}
