// Command harplint is the HARP repo's project-specific static analyzer.
// It type-checks the module with nothing but the standard library (go/ast,
// go/parser, go/types and a custom module loader — no go/packages), builds
// a conservative whole-module call graph, and runs seven passes tuned to
// this codebase's correctness contract:
//
//	determinism — no wall-clock reads, no global math/rand, no map
//	              iteration order leaking into scheduling decisions;
//	errcheck    — no discarded error returns anywhere under internal/;
//	docs        — every exported identifier documented;
//	output      — no fmt.Print*/log.Print* terminal output in runtime
//	              (non-main) packages; observability goes through
//	              internal/obs instead;
//	vtime       — no runtime-package function transitively reaches the
//	              wall clock (time.Now/Sleep/NewTimer/...), at any call
//	              depth, unless annotated //harplint:realtime;
//	rngstream   — rand generators are constructed only inside
//	              internal/vclock, stream names are registry constants,
//	              and no runtime function transitively consumes the
//	              global math/rand source;
//	hotpath     — functions annotated //harplint:hotpath, and everything
//	              they transitively call, are free of locally-provable
//	              heap allocations.
//
// Findings are suppressed in place with `//harplint:allow <pass>` on the
// offending (or preceding) line, or `//harplint:file-allow <pass>` for a
// whole file. Pre-existing findings can instead be parked in a committed
// baseline (-baseline harplint.baseline.json) and burned down over time;
// baseline entries that no longer fire fail the run so the file cannot
// rot. Exit status is 1 if any finding survives, 0 otherwise.
//
// Usage:
//
//	harplint [-pass determinism,...] [-format text|json|github]
//	         [-baseline harplint.baseline.json] [packages]
//
// Packages default to ./... relative to the enclosing module.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// pass couples a pass name with its implementation. Per-unit passes set
// run; interprocedural passes set global and receive every unit plus the
// module call graph.
type pass struct {
	name   string
	run    func(*Unit, func(Finding))
	global func([]*Unit, *CallGraph, func(Finding))
}

// allPasses is the registry, in report order.
var allPasses = []pass{
	{name: passDeterminism, run: runDeterminism},
	{name: passErrcheck, run: runErrcheck},
	{name: passDocs, run: runDocs},
	{name: passOutput, run: runOutput},
	{name: passVtime, global: runVtime},
	{name: passRngstream, global: runRngstream},
	{name: passHotpath, global: runHotpath},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("harplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passList := fs.String("pass", "", "comma-separated subset of passes to run (default: all)")
	format := fs.String("format", "text", "findings output format: text, json, or github")
	baselinePath := fs.String("baseline", "", "baseline file of accepted findings (JSON); stale entries fail the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" && *format != "github" {
		fmt.Fprintf(stderr, "harplint: unknown format %q\n", *format)
		return 2
	}

	selected := allPasses
	if *passList != "" {
		byName := make(map[string]pass, len(allPasses))
		for _, p := range allPasses {
			byName[p.name] = p
		}
		selected = nil
		for _, name := range strings.Split(*passList, ",") {
			p, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "harplint: unknown pass %q\n", name)
				return 2
			}
			selected = append(selected, p)
		}
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
	units, err := Load(cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := Lint(units, selected)
	if *baselinePath != "" {
		bl, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "harplint:", err)
			return 2
		}
		findings = bl.apply(root, findings)
	}
	if err := writeFindings(stdout, *format, root, findings); err != nil {
		fmt.Fprintln(stderr, "harplint:", err)
		return 2
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "harplint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// Lint runs the selected passes over the units and returns the surviving
// (non-suppressed) findings in stable order. The call graph is built once
// and shared by all interprocedural passes; suppression directives from
// every unit apply to every pass, so an interprocedural finding is
// silenced by an allow comment in the file it points at.
func Lint(units []*Unit, passes []pass) []Finding {
	perUnit := make(map[*Unit]*directiveIndex, len(units))
	for _, u := range units {
		perUnit[u] = collectDirectives(u)
	}
	allows := func(pass string, f Finding) bool {
		for _, idx := range perUnit {
			if idx.allows(pass, f.Pos) {
				return true
			}
		}
		return false
	}

	var findings []Finding
	var graph *CallGraph
	for _, p := range passes {
		p := p
		report := func(f Finding) {
			if !allows(p.name, f) {
				findings = append(findings, f)
			}
		}
		switch {
		case p.run != nil:
			for _, u := range units {
				p.run(u, report)
			}
		case p.global != nil:
			if graph == nil {
				graph = buildCallGraph(units)
			}
			p.global(units, graph, report)
		}
	}
	sortFindings(findings)
	return findings
}
