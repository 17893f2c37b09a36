package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The vtime pass is the interprocedural teeth behind the determinism
// pass's wall-clock rule: every result this repo ships is measured on
// internal/vclock's virtual timeline, so a runtime (non-main) package
// function must not reach the wall clock at any call depth — not
// directly, not through a helper two packages away, and not by spawning a
// goroutine that does. The per-function determinism pass catches the
// direct read; this pass walks the module call graph and flags the whole
// chain, one finding per call site that leaks toward a sink, so the
// offending path is visible file by file.
//
// Functions that legitimately deal in wall time — the HTTP inspection
// endpoint, profiling helpers, bench wall-time reporting — carry a
// //harplint:realtime annotation on their declaration. An annotated
// function is exempt and, critically, does not taint its callers: the
// annotation is the audited boundary between the virtual and the real
// timeline. Commands (package main) are exempt as always.
const passVtime = "vtime"

// vtimeSinks are the time-package entry points that read or wait on the
// wall clock. Date/Parse/Unix constructors are pure and not listed.
var vtimeSinks = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
}

// timeSink is one direct wall-clock call inside a function body.
type timeSink struct {
	name string
	pos  token.Pos
}

// vtimeState is the per-function propagation record.
type vtimeState struct {
	tainted bool
	// Witness to the sink for diagnostics: either a direct sink name or
	// the callee the taint arrived through.
	sinkName string
	via      *types.Func
}

// runVtime applies the vtime pass over the whole module.
func runVtime(units []*Unit, g *CallGraph, report func(Finding)) {
	exempt := make(map[*types.Func]bool)
	sinks := make(map[*types.Func][]timeSink)
	for _, n := range g.order {
		if n.decl == nil {
			continue
		}
		if funcDirective(n.unit, n.decl, "realtime") {
			exempt[n.fn] = true
			continue
		}
		if s := collectTimeSinks(n.unit, n.decl); len(s) > 0 {
			sinks[n.fn] = s
		}
	}

	state := propagateTaint(g, exempt, func(fn *types.Func) (string, bool) {
		if s := sinks[fn]; len(s) > 0 {
			return "time." + s[0].name, true
		}
		return "", false
	})

	for _, n := range g.order {
		if n.decl == nil || !isRuntimeUnit(n.unit) || exempt[n.fn] {
			continue
		}
		for _, s := range sinks[n.fn] {
			report(Finding{
				Pos:  n.unit.Fset.Position(s.pos),
				Pass: passVtime,
				Message: "time." + s.name + " reads the wall clock in a runtime package; " +
					"schedule on the vclock or annotate the function //harplint:realtime",
			})
		}
		for _, e := range n.out {
			st := state[e.callee]
			if st == nil || !st.tainted {
				continue
			}
			verb := "call to"
			if e.kind == edgeGo {
				verb = "goroutine spawning"
			}
			report(Finding{
				Pos:  n.unit.Fset.Position(e.pos),
				Pass: passVtime,
				Message: verb + " " + funcDisplayName(e.callee) + " transitively reaches the wall clock (" +
					taintChain(state, e.callee, 8) + "); run it on the vclock or annotate //harplint:realtime",
			})
		}
	}
}

// collectTimeSinks lists the direct wall-clock calls in one declaration.
func collectTimeSinks(u *Unit, fn *ast.FuncDecl) []timeSink {
	var out []timeSink
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := u.Info.Uses[ident].(*types.PkgName)
		if !ok || pkgName.Imported().Path() != "time" {
			return true
		}
		if vtimeSinks[sel.Sel.Name] {
			out = append(out, timeSink{name: sel.Sel.Name, pos: call.Pos()})
		}
		return true
	})
	return out
}

// propagateTaint marks every graph node that can reach a sink, walking
// callee→caller over the edge set. exempt nodes neither seed nor relay
// taint. isSink names a node's own sink if it has one. The returned map
// carries a witness per tainted node so diagnostics can print the chain.
func propagateTaint(g *CallGraph, exempt map[*types.Func]bool, isSink func(*types.Func) (string, bool)) map[*types.Func]*vtimeState {
	state := make(map[*types.Func]*vtimeState, len(g.order))
	callers := make(map[*types.Func][]*cgNode)
	for _, n := range g.order {
		for _, e := range n.out {
			callers[e.callee] = append(callers[e.callee], n)
		}
	}
	var work []*types.Func
	for _, n := range g.order {
		if exempt[n.fn] {
			continue
		}
		if name, ok := isSink(n.fn); ok {
			state[n.fn] = &vtimeState{tainted: true, sinkName: name}
			work = append(work, n.fn)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[fn] {
			if exempt[caller.fn] {
				continue
			}
			if st := state[caller.fn]; st != nil && st.tainted {
				continue
			}
			state[caller.fn] = &vtimeState{tainted: true, via: fn}
			work = append(work, caller.fn)
		}
	}
	return state
}

// taintChain renders the witness path from fn to its sink, e.g.
// "sim.step → vclock.Clock.Now → time.Now".
func taintChain(state map[*types.Func]*vtimeState, fn *types.Func, limit int) string {
	var parts []string
	for fn != nil && limit > 0 {
		parts = append(parts, funcDisplayName(fn))
		st := state[fn]
		if st == nil {
			break
		}
		if st.via == nil {
			parts = append(parts, st.sinkName)
			break
		}
		fn = st.via
		limit--
	}
	if limit == 0 {
		parts = append(parts, "…")
	}
	return strings.Join(parts, " → ")
}
