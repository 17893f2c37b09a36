package main

import (
	"path/filepath"
	"testing"
)

// lintTestdata runs the named pass over one of the committed fixture
// modules under testdata/, whose violations span several files.
func lintTestdata(t *testing.T, fixture, passName string) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	return lintModule(t, root, passName)
}

func TestRngstreamFlagsConstructorsAndNames(t *testing.T) {
	msgs := lintTestdata(t, "rngstream", "rngstream")
	wantFindings(t, msgs,
		// ctor/ctor.go Raw: both the generator and the source construction.
		"rand.New constructs a generator outside internal/vclock",
		"rand.NewSource constructs a generator outside internal/vclock",
		// ctor/ctor.go Unregistered: string-literal stream name.
		"stream name passed to vclock.NewStream is not a constant from the internal/vclock registry",
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

func TestUnusedFlagsCodeOnlyTestsReach(t *testing.T) {
	msgs := lintTestdata(t, "unused", "unused")
	wantFindings(t, msgs,
		"function fx.Unused has no use outside tests",
		"function fx.unusedHelper has no use outside tests",
		"function fx.OnlyTests has no use outside tests",
		"function fx.countdown has no use outside tests",
	)
	// Kept: T.Name (Namer declares it), the generic Box.Get and First
	// (used through instances), DebugOnly (called from the harpdebug
	// build), Allowed (directive) and lib.Free (outside internal/).
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
