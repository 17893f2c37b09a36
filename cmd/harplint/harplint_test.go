package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture materialises files as a throwaway module and runs the full
// loader over it, so fixtures exercise the same parse/type-check path as
// real invocations.
func loadFixture(t *testing.T, files map[string]string) []*Unit {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	units, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return units
}

// lintFixture runs one pass over a fixture and returns the finding
// messages.
func lintFixture(t *testing.T, passName string, files map[string]string) []string {
	t.Helper()
	var selected []pass
	for _, p := range allPasses {
		if p.name == passName {
			selected = append(selected, p)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("unknown pass %q", passName)
	}
	findings := Lint(loadFixture(t, files), selected)
	msgs := make([]string, len(findings))
	for i, f := range findings {
		msgs[i] = f.String()
	}
	return msgs
}

func wantFindings(t *testing.T, msgs []string, substrings ...string) {
	t.Helper()
	if len(msgs) != len(substrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(msgs), len(substrings), strings.Join(msgs, "\n"))
	}
	for i, want := range substrings {
		if !strings.Contains(msgs[i], want) {
			t.Errorf("finding %d = %q, want substring %q", i, msgs[i], want)
		}
	}
}

func TestDeterminismFlagsWallClockAndGlobalRand(t *testing.T) {
	msgs := lintFixture(t, "determinism", map[string]string{
		"fx/fx.go": `// Package fx is a fixture.
package fx

import (
	"math/rand"
	"time"
)

// Stamp is a seeded violation.
func Stamp() int64 { return time.Now().UnixNano() }

// Roll is a seeded violation.
func Roll() int { return rand.Intn(6) }

// Seeded threads an explicit source and is fine.
func Seeded(r *rand.Rand) int { return r.Intn(6) }
`,
	})
	wantFindings(t, msgs, "time.Now", "global math/rand.Intn")
}

func TestDeterminismFlagsMapOrderLeaks(t *testing.T) {
	msgs := lintFixture(t, "determinism", map[string]string{
		"fx/fx.go": `// Package fx is a fixture.
package fx

import "sort"

// Conn is a fixture message sink.
type Conn struct{}

// Send is a fixture send.
func (Conn) Send(k int) error { return nil }

// Keys leaks traversal order: the result is never sorted.
func Keys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is fine: the result is sorted before returning.
func SortedKeys(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Emit sends in traversal order.
func Emit(m map[int]int, c Conn) {
	for k := range m {
		_ = c.Send(k)
	}
}

// Rekey writes through the range key and is fine.
func Rekey(m map[int][]int) map[int][]int {
	out := make(map[int][]int)
	for k, v := range m {
		out[k] = append(out[k], v...)
	}
	return out
}
`,
	})
	wantFindings(t, msgs, "append to out inside map iteration", "message emission inside map iteration")
}

func TestErrcheckFlagsDiscardsOnlyInScope(t *testing.T) {
	shared := `// Package fx is a fixture.
package fx

// Fail is a fixture returning an error.
func Fail() error { return nil }

// Drop discards implicitly.
func Drop() { Fail() }

// Blank discards explicitly.
func Blank() { _ = Fail() }

// Handled is fine.
func Handled() error { return Fail() }

// Allowed carries a directive.
func Allowed() {
	//harplint:allow errcheck
	_ = Fail()
}
`
	// In scope: the protocol-critical package paths.
	msgs := lintFixture(t, "errcheck", map[string]string{"internal/core/fx.go": shared})
	wantFindings(t, msgs, "result of Fail discards an error", "error from Fail assigned to _")

	// Out of scope: same code elsewhere passes.
	msgs = lintFixture(t, "errcheck", map[string]string{"fx/fx.go": shared})
	wantFindings(t, msgs)
}

func TestDocsFlagsUndocumentedExports(t *testing.T) {
	msgs := lintFixture(t, "docs", map[string]string{
		"fx/fx.go": `package fx

func Exported() {}

// Documented is fine.
func Documented() {}

type Thing int

// Limit is fine.
const Limit = 4

var Count int

func unexported() {}
`,
	})
	wantFindings(t, msgs,
		"package fx has no package doc comment",
		"exported function Exported has no doc comment",
		"exported type Thing has no doc comment",
		"exported identifier Count has no doc comment",
	)
}

func TestDirectiveSuppression(t *testing.T) {
	msgs := lintFixture(t, "determinism", map[string]string{
		"fx/fx.go": `// Package fx is a fixture.
package fx

import "time"

// SameLine is suppressed by a trailing directive.
func SameLine() int64 { return time.Now().Unix() } //harplint:allow determinism

// PrevLine is suppressed by the preceding line.
func PrevLine() int64 {
	//harplint:allow determinism
	return time.Now().Unix()
}
`,
		"fw/fw.go": `// Package fw is a fixture with a file-wide allow.
//harplint:file-allow determinism
package fw

import "time"

// Anywhere is suppressed file-wide.
func Anywhere() int64 { return time.Now().Unix() }
`,
	})
	wantFindings(t, msgs)
}

func TestHarplintCleanOnOwnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against $GOROOT/src")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	units, err := Load(cwd, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings := Lint(units, allPasses)
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

func TestOutputFlagsTerminalPrints(t *testing.T) {
	msgs := lintFixture(t, "output", map[string]string{
		"internal/fx/fx.go": `// Package fx is a fixture.
package fx

import (
	"fmt"
	"log"
)

// Noisy is an output violation.
func Noisy(v int) {
	fmt.Printf("v=%d\n", v)
	log.Println("v", v)
}

// Quiet builds a string without touching the terminal and is fine.
func Quiet(v int) string { return fmt.Sprintf("v=%d", v) }

// Fatalist is an output violation (kills deterministic replay too).
func Fatalist() { log.Fatal("boom") }
`,
	})
	wantFindings(t, msgs,
		"fmt.Printf writes to the terminal from a runtime package",
		"log.Println bypasses the obs registry",
		"log.Fatal bypasses the obs registry",
	)
}

func TestOutputExemptsCommandsAndAllows(t *testing.T) {
	msgs := lintFixture(t, "output", map[string]string{
		"cmd/fxtool/main.go": `// Command fxtool is a fixture command.
package main

import "fmt"

func main() { fmt.Println("commands own their stdout") }
`,
		"internal/fy/fy.go": `// Package fy is a fixture with a suppressed print.
package fy

import "fmt"

// Debug is suppressed in place.
func Debug() {
	fmt.Println("dbg") //harplint:allow output
}
`,
	})
	wantFindings(t, msgs)
}
