// Command harplint is the HARP repo's project-specific static analyzer.
// It type-checks the whole module with nothing but the standard library
// (go/ast, go/parser, go/types and a custom module loader — no
// go/packages), builds a conservative whole-module call graph, and runs
// seven passes tuned to this codebase's correctness contract:
//
//	determinism — no wall-clock reads or waits (time.Now/Sleep/NewTimer/...),
//	              no global math/rand, no map iteration order leaking
//	              into scheduling decisions;
//	errcheck    — no discarded error returns anywhere under internal/;
//	docs        — every exported identifier documented;
//	output      — no fmt.Print*/log.Print* terminal output in runtime
//	              (non-main) packages; observability goes through
//	              internal/obs instead;
//	rngstream   — rand generators are constructed only inside
//	              internal/vclock, and stream names are registry constants;
//	hotpath     — functions annotated //harplint:hotpath, and everything
//	              they transitively call, are free of locally-provable
//	              heap allocations;
//	unused      — every function and method under internal/ has a use in
//	              the module's non-test code.
//
// Findings are suppressed in place with `//harplint:allow <pass>` on the
// offending (or preceding) line. Exit status is 1 if any finding
// survives, 2 on a usage or load error, 0 otherwise.
//
// Usage, from anywhere inside the module:
//
//	harplint [-format text|github]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// pass couples a pass name with its implementation. Per-unit passes set
// run; whole-module passes (hotpath, unused) set global and receive every
// unit.
type pass struct {
	name   string
	run    func(*Unit, func(Finding))
	global func([]*Unit, func(Finding))
}

// allPasses is the registry, in report order.
var allPasses = []pass{
	{name: passDeterminism, run: runDeterminism},
	{name: passErrcheck, run: runErrcheck},
	{name: passDocs, run: runDocs},
	{name: passOutput, run: runOutput},
	{name: passRngstream, run: runRngstream},
	{name: passHotpath, global: runHotpath},
	{name: passUnused, global: runUnused},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("harplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "findings output format: text or github")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: harplint [-format text|github]  (lints the whole enclosing module)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "harplint: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "harplint: unknown format %q\n", *format)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "harplint:", err)
		return 2
	}
	root, _, err := moduleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	units, err := Load(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := Lint(units, allPasses)
	writeFindings(stdout, *format, root, findings)
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "harplint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// Lint runs the given passes over the units and returns the surviving
// (non-suppressed) findings in stable order. A finding is silenced by an
// allow comment on its own line or the line above, in whichever file it
// points at.
func Lint(units []*Unit, passes []pass) []Finding {
	allowed := collectAllows(units)
	var findings []Finding
	for _, p := range passes {
		report := func(f Finding) {
			if !allowed[allowKey{f.Pos.Filename, f.Pos.Line, p.name}] &&
				!allowed[allowKey{f.Pos.Filename, f.Pos.Line - 1, p.name}] {
				findings = append(findings, f)
			}
		}
		if p.global != nil {
			p.global(units, report)
			continue
		}
		for _, u := range units {
			p.run(u, report)
		}
	}
	sortFindings(findings)
	return findings
}

// writeFindings renders the findings as file:line:col text or as GitHub
// Actions error annotations pinned to module-relative paths.
func writeFindings(w io.Writer, format, root string, findings []Finding) {
	for _, f := range findings {
		if format != "github" {
			fmt.Fprintln(w, f)
			continue
		}
		// https://docs.github.com/actions/reference/workflow-commands —
		// commas and colons in properties and newlines in the message
		// must be escaped.
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s\n",
			githubEscapeProp(moduleRel(root, f.Pos.Filename)), f.Pos.Line, f.Pos.Column,
			githubEscape(fmt.Sprintf("[%s] %s", f.Pass, f.Message)))
	}
}

// moduleRel rewrites an absolute path relative to the module root with
// forward slashes; paths outside the root are returned unchanged.
func moduleRel(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return filepath.ToSlash(rel)
}

// githubEscape escapes a workflow-command message value.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// githubEscapeProp escapes a workflow-command property value.
func githubEscapeProp(s string) string {
	s = githubEscape(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
