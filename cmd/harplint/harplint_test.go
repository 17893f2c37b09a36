package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintFixture materialises files as a throwaway module and runs one pass
// over it, returning the finding messages.
func lintFixture(t *testing.T, passName string, files map[string]string) []string {
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
	return lintModule(t, root, passName)
}

// lintModule runs the full loader over the module at root, so fixtures
// exercise the same parse/type-check path as real invocations, then runs
// the named pass and returns the finding messages.
func lintModule(t *testing.T, root, passName string) []string {
	t.Helper()
	units, err := Load(root)
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	var selected []pass
	for _, p := range allPasses {
		if p.name == passName {
			selected = append(selected, p)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("unknown pass %q", passName)
	}
	findings := Lint(units, selected)
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
		// A wait two calls below the exported entry point is flagged once,
		// at the direct call; timers and tickers are wall-clock waits too.
		"internal/core/core.go": `// Package core is a fixture.
package core

import "time"

// Top reaches the wall clock two calls deep.
func Top() { mid() }

func mid() { wait() }

func wait() { time.Sleep(time.Millisecond) }

// Arm is a seeded violation.
func Arm() *time.Timer { return time.NewTimer(time.Second) }

// Beat is a seeded violation.
func Beat() <-chan time.Time { return time.Tick(time.Second) }
`,
		// Building a v2 generator from an explicit seed does not touch the
		// process-seeded source.
		"internal/vclock/vclock.go": `// Package vclock is a fixture.
package vclock

import "math/rand/v2"

// NewStream is fine.
func NewStream(s uint64) *rand.Rand { return rand.New(rand.NewPCG(s, s)) }
`,
	})
	wantFindings(t, msgs, "time.Now", "global math/rand.Intn",
		"time.Sleep", "time.NewTimer", "time.Tick")
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
	})
	wantFindings(t, msgs)
}

func TestRunRejectsPositionalArguments(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"./internal/core"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: harplint") {
		t.Errorf("stderr lacks a usage message:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}

func TestHarplintCleanOnOwnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module against $GOROOT/src")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	units, err := Load(cwd)
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
