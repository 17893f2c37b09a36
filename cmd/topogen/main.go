// Command topogen emits network topologies as JSON, either generated
// randomly (tree-shaped, like the paper's simulation topologies) or formed
// by the RPL-lite model over a random geometric link-quality graph.
//
// Examples:
//
//	topogen -nodes 50 -layers 5 > net.json
//	topogen -rpl -nodes 50 -radius 0.3 > net.json
//	topogen -canned testbed50 > testbed.json
//	topogen -preset scale -out trees/   # scale_1000/10000/50000.json
//
// Output is streamed (topology.Tree.EncodeJSON), so the 50k-node scale
// trees never materialise as one in-memory document.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/harpnet/harp/internal/rpl"
	"github.com/harpnet/harp/internal/topology"
)

// scalePresetSizes are the fleet sizes the scale experiment family uses;
// -preset scale emits one tree per size with the experiment's shape
// parameters (8 layers, fan-out 8).
var scalePresetSizes = []int{1_000, 10_000, 50_000}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args and writes the topology
// JSON to stdout (or, for -preset, files into -out).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		nodes  = fs.Int("nodes", 50, "node count (including the gateway)")
		layers = fs.Int("layers", 5, "tree depth for random generation")
		fanout = fs.Int("fanout", 0, "fan-out cap (0 = unlimited)")
		useRPL = fs.Bool("rpl", false, "form the tree with RPL-lite over a random geometric graph")
		radius = fs.Float64("radius", 0.3, "radio radius for -rpl (unit square)")
		canned = fs.String("canned", "", "emit a canned topology: fig1, testbed50, deep81")
		preset = fs.String("preset", "", "emit a family of topologies: scale (1k/10k/50k trees)")
		outDir = fs.String("out", ".", "output directory for -preset files")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *preset != "" {
		return emitPreset(*preset, *outDir, *seed)
	}
	tree, err := build(*canned, *useRPL, *nodes, *layers, *fanout, *radius, *seed)
	if err != nil {
		return err
	}
	if err := tree.EncodeJSON(stdout); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "topogen: %d nodes, %d layers\n", tree.Len(), tree.MaxLayer())
	return nil
}

// emitPreset writes a named topology family into dir, one streamed JSON
// file per tree.
func emitPreset(name, dir string, seed int64) error {
	if name != "scale" {
		return fmt.Errorf("unknown preset %q", name)
	}
	for _, n := range scalePresetSizes {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		tree, err := topology.GenerateScale(topology.GenSpec{Nodes: n, Layers: 8, MaxChildren: 8}, rng)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("scale_%d.json", n))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tree.EncodeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "topogen: wrote %s (%d nodes, %d layers)\n", path, tree.Len(), tree.MaxLayer())
	}
	return nil
}

func build(canned string, useRPL bool, nodes, layers, fanout int, radius float64, seed int64) (*topology.Tree, error) {
	switch canned {
	case "fig1":
		return topology.Fig1(), nil
	case "testbed50":
		return topology.Testbed50(), nil
	case "deep81":
		return topology.Deep81(), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown canned topology %q", canned)
	}
	rng := rand.New(rand.NewSource(seed))
	if useRPL {
		graph, err := rpl.RandomGeometric(nodes, radius, rng)
		if err != nil {
			return nil, err
		}
		return graph.FormTree()
	}
	return topology.Generate(topology.GenSpec{Nodes: nodes, Layers: layers, MaxChildren: fanout}, rng)
}
