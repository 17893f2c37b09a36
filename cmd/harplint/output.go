package main

import "go/ast"

// The output pass forbids ad-hoc terminal output in runtime packages:
// fmt.Print/Printf/Println and the log package's printers bypass the
// obs tracer/metrics registry, interleave nondeterministically with the
// virtual clock, and corrupt machine-read stdout (harpbench -json).
// Observability belongs in internal/obs events and counters; commands
// (package main) own their stdout and are exempt.
const passOutput = "output"

// outputFmtFuncs are the fmt printers that write to the process streams.
var outputFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
}

// outputLogFuncs are the log-package printers (all of them write to the
// global logger; Fatal*/Panic* additionally kill deterministic replay).
var outputLogFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// runOutput applies the output pass to one unit.
func runOutput(u *Unit, report func(Finding)) {
	if u.IsMain() {
		return
	}
	for _, file := range u.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkOutputCall(u, call, report)
			return true
		})
	}
}

// checkOutputCall flags fmt.Print* and log.Print*/Fatal*/Panic* calls.
func checkOutputCall(u *Unit, call *ast.CallExpr, report func(Finding)) {
	switch path, name := u.pkgCall(call); path {
	case "fmt":
		if outputFmtFuncs[name] {
			report(Finding{
				Pos:  u.Fset.Position(call.Pos()),
				Pass: passOutput,
				Message: "fmt." + name + " writes to the terminal from a runtime package; " +
					"emit an obs event/metric or return the value to the command layer",
			})
		}
	case "log":
		if outputLogFuncs[name] {
			report(Finding{
				Pos:  u.Fset.Position(call.Pos()),
				Pass: passOutput,
				Message: "log." + name + " bypasses the obs registry in a runtime package; " +
					"emit an obs event/metric or return an error instead",
			})
		}
	}
}
