package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/harpnet/harp/internal/topology"
)

// TestPresetScaleDecodes runs `topogen -preset scale` and requires every
// emitted file to decode back into a valid tree of the advertised size.
func TestPresetScaleDecodes(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-preset", "scale", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, n := range scalePresetSizes {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("scale_%d.json", n)))
		if err != nil {
			t.Fatal(err)
		}
		var tree topology.Tree
		if err := json.Unmarshal(data, &tree); err != nil {
			t.Fatalf("scale_%d: %v", n, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("scale_%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Errorf("scale_%d holds %d nodes", n, tree.Len())
		}
	}
	if err := run([]string{"-preset", "nope", "-out", dir}, io.Discard); err == nil {
		t.Error("unknown preset accepted")
	}
}
