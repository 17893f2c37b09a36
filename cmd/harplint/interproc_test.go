package main

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// lintTestdata loads one of the committed fixture modules under testdata/
// and runs the named pass over it. Unlike loadFixture's throwaway modules,
// these fixtures are real multi-package trees: the interprocedural
// violations span package boundaries.
func lintTestdata(t *testing.T, fixture, passName string) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	units, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading testdata/%s: %v", fixture, err)
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

func TestVtimeFlagsTransitiveWallClock(t *testing.T) {
	msgs := lintTestdata(t, "vtime", "vtime")
	wantFindings(t, msgs,
		// app/app.go: the two-deep violation and the goroutine leak. The
		// realtime-annotated boundary package and the allow-suppressed call
		// produce nothing.
		"call to middle.Sample transitively reaches the wall clock (middle.Sample → clockutil.Stamp → time.Now)",
		"goroutine spawning middle.Sample transitively reaches the wall clock",
		// clockutil: the direct sink.
		"time.Now reads the wall clock in a runtime package",
		// middle: one hop from the sink.
		"call to clockutil.Stamp transitively reaches the wall clock (clockutil.Stamp → time.Now)",
	)
}

func TestRngstreamFlagsConstructorsNamesAndDeepGlobalRand(t *testing.T) {
	msgs := lintTestdata(t, "rngstream", "rngstream")
	wantFindings(t, msgs,
		// ctor/ctor.go Raw: both the generator and the source construction.
		"rand.New constructs a generator outside internal/vclock",
		"rand.NewSource constructs a generator outside internal/vclock",
		// ctor/ctor.go Unregistered: string-literal stream name.
		"stream name passed to vclock.NewStream is not a constant from the internal/vclock registry",
		// deep/deep.go: both edges of the two-deep chain to the global
		// source (the direct call in roll belongs to the determinism pass).
		"call to deep.roll transitively consumes the global math/rand source (deep.roll → math/rand.Intn)",
		"call to deep.pick transitively consumes the global math/rand source (deep.pick → deep.roll → math/rand.Intn)",
	)
}

func TestHotpathFlagsDirectAndTransitiveAllocations(t *testing.T) {
	msgs := lintTestdata(t, "hotpath", "hotpath")
	wantFindings(t, msgs,
		// The escaping literal in the annotated root itself...
		"hot path (hot.Sink.Process): composite literal escapes to the heap",
		// ...and the allocation two calls down. The guarded block and the
		// allow-suppressed make produce nothing.
		"hot path (hot.Sink.Process → hot.mid → hot.leaf): make allocates on the hot path",
	)
}

func TestRealtimeAnnotationStopsTaintAtBoundary(t *testing.T) {
	msgs := lintTestdata(t, "vtime", "vtime")
	for _, m := range msgs {
		if strings.Contains(m, "boundary") {
			t.Errorf("realtime-annotated boundary package produced a finding: %s", m)
		}
	}
}

func TestBaselineFiltersAndRotGuard(t *testing.T) {
	root := "/mod"
	findings := []Finding{
		{Pos: token.Position{Filename: "/mod/a/a.go", Line: 10, Column: 2}, Pass: "vtime", Message: "old finding"},
		{Pos: token.Position{Filename: "/mod/b/b.go", Line: 3, Column: 1}, Pass: "docs", Message: "new finding"},
	}
	bl := &baseline{Findings: []jsonFinding{
		// Matches the vtime finding even though the recorded line differs:
		// baseline entries match on (file, pass, message) only.
		{File: "a/a.go", Line: 99, Pass: "vtime", Message: "old finding"},
		// Matches nothing: must surface as a stale-entry finding.
		{File: "c/c.go", Pass: "docs", Message: "gone finding"},
	}}
	out := bl.apply(root, findings)
	if len(out) != 2 {
		t.Fatalf("got %d findings after baseline, want 2: %v", len(out), out)
	}
	var sawNew, sawStale bool
	for _, f := range out {
		if f.Message == "new finding" {
			sawNew = true
		}
		if f.Pass == "baseline" && strings.Contains(f.Message, "stale baseline entry") &&
			strings.Contains(f.Message, "c/c.go") {
			sawStale = true
		}
	}
	if !sawNew {
		t.Error("unbaselined finding was filtered")
	}
	if !sawStale {
		t.Errorf("stale baseline entry did not surface: %v", out)
	}
}

func TestModuleRelAndGithubEscape(t *testing.T) {
	if got := moduleRel("/mod", "/mod/pkg/f.go"); got != "pkg/f.go" {
		t.Errorf("moduleRel = %q, want pkg/f.go", got)
	}
	if got := moduleRel("/mod", "/elsewhere/f.go"); got != "/elsewhere/f.go" {
		t.Errorf("moduleRel outside root = %q, want unchanged", got)
	}
	if got := githubEscape("50% done\nnext"); got != "50%25 done%0Anext" {
		t.Errorf("githubEscape = %q", got)
	}
	if got := githubEscapeProp("a,b:c"); got != "a%2Cb%3Ac" {
		t.Errorf("githubEscapeProp = %q", got)
	}
}
