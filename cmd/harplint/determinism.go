package main

import (
	"go/ast"
	"go/types"
)

// The determinism pass enforces the repo-wide reproducibility contract: a
// HARP run must be a pure function of (topology, demands, seed) so that
// schedule divergences between the centralized planner and the agent fleet
// are debuggable by replay. Three things break that contract:
//
//  1. wall-clock reads and waits (time.Now, time.Sleep, timers and
//     tickers) feeding logic;
//  2. the global math/rand source, which is process-seeded;
//  3. map iteration order leaking into scheduling decisions — ranging over
//     a map while appending to an outer slice that is never sorted, or
//     while emitting protocol messages.
//
// Rules 1 and 2 are per call site, and that is enough at any call depth:
// a chain of module functions that reaches the wall clock or the global
// source ends in a direct call, which this pass flags wherever it sits.
// Commands (package main) are exempt: their job is wiring and timing, and
// nothing can import them.
const passDeterminism = "determinism"

// wallClockFuncs are the time-package entry points that read or wait on
// the wall clock. Date/Parse/Unix constructors are pure and not listed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
}

// runDeterminism applies the determinism pass to one unit.
func runDeterminism(u *Unit, report func(Finding)) {
	if u.IsMain() {
		return
	}
	for _, file := range u.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDeterminismFunc(u, fn, report)
		}
	}
}

func checkDeterminismFunc(u *Unit, fn *ast.FuncDecl, report func(Finding)) {
	sortedTargets := collectSortTargets(u, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondeterministicCall(u, n, report)
		case *ast.RangeStmt:
			checkMapRange(u, n, sortedTargets, report)
		}
		return true
	})
}

// checkNondeterministicCall flags wall-clock calls and global math/rand
// calls.
func checkNondeterministicCall(u *Unit, call *ast.CallExpr, report func(Finding)) {
	switch path, name := u.pkgCall(call); path {
	case "time":
		if wallClockFuncs[name] {
			report(Finding{
				Pos:  u.Fset.Position(call.Pos()),
				Pass: passDeterminism,
				Message: "time." + name + " breaks deterministic replay; " +
					"thread a clock or timestamp through the call chain",
			})
		}
	case "math/rand", "math/rand/v2":
		if !randCtorFuncs[name] {
			report(Finding{
				Pos:  u.Fset.Position(call.Pos()),
				Pass: passDeterminism,
				Message: "global math/rand." + name + " is process-seeded; " +
					"thread an explicit seeded *rand.Rand instead",
			})
		}
	}
}

// collectSortTargets walks a function body for sort.* calls and records
// the root identifiers of their arguments: a slice later sorted is allowed
// to be built in map-iteration order.
func collectSortTargets(u *Unit, body *ast.BlockStmt) map[types.Object]bool {
	targets := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, _ := u.pkgCall(call); path != "sort" && path != "slices" {
			return true
		}
		// Collect every identifier mentioned in the arguments: covers
		// sort.Slice(out, ...), sort.Ints(out) and sort.Sort(byX(out)).
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := u.Info.Uses[id]; obj != nil {
						targets[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return targets
}

// checkMapRange flags two ways map iteration order can escape a range
// loop: appending to a destination that is neither keyed by the range
// variables nor sorted afterwards, and emitting protocol messages (Send
// calls) directly from the loop body.
func checkMapRange(u *Unit, rs *ast.RangeStmt, sortedTargets map[types.Object]bool, report func(Finding)) {
	t := u.Info.Types[rs.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkRangeAppend(u, rs, n, sortedTargets, report)
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Send" || sel.Sel.Name == "send") {
				report(Finding{
					Pos:  u.Fset.Position(n.Pos()),
					Pass: passDeterminism,
					Message: "message emission inside map iteration: send order depends on " +
						"map traversal; iterate a sorted key slice instead",
				})
			}
		}
		return true
	})
}

// checkRangeAppend flags `dst = append(dst, ...)` inside a map-range body
// when dst escapes the iteration unsorted and unkeyed.
func checkRangeAppend(u *Unit, rs *ast.RangeStmt, as *ast.AssignStmt, sortedTargets map[types.Object]bool, report func(Finding)) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "append" {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		root := rootIdent(as.Lhs[i])
		if root == nil {
			continue
		}
		obj := u.Info.Uses[root]
		if obj == nil {
			obj = u.Info.Defs[root]
		}
		if obj == nil || sortedTargets[obj] {
			continue
		}
		// Destinations indexed by the range key are per-entry and ordered by
		// the key, not the traversal: m2[k] = append(m2[k], ...) is fine.
		if lhsUsesRangeVars(u, as.Lhs[i], rs) {
			continue
		}
		// Destinations declared inside the loop body never observe cross-key
		// ordering.
		if rs.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.Body.End() {
			continue
		}
		report(Finding{
			Pos:  u.Fset.Position(as.Pos()),
			Pass: passDeterminism,
			Message: "append to " + root.Name + " inside map iteration leaks traversal order; " +
				"sort the result or iterate a sorted key slice",
		})
	}
}

// rootIdent returns the base identifier of an assignable expression
// (x, x.f, x[i] all root at x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// lhsUsesRangeVars reports whether the assignment destination mentions one
// of the range statement's key/value variables (e.g. out[k] = ...).
func lhsUsesRangeVars(u *Unit, lhs ast.Expr, rs *ast.RangeStmt) bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := u.Info.Defs[id]; obj != nil {
				vars[obj] = true
			}
			if obj := u.Info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	used := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := u.Info.Uses[id]; obj != nil && vars[obj] {
				used = true
			}
		}
		return !used
	})
	return used
}
