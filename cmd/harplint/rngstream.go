package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// The rngstream pass enforces the module's randomness discipline: all
// randomness flows through internal/vclock's named, seeded streams, so a
// run is a pure function of its seeds and adding a consumer never
// perturbs another's draws. Two rules, both checked per call site:
//
//  1. rand.New / rand.NewSource (and the v2 generators) may only be
//     constructed inside internal/vclock — everywhere else in runtime
//     code a generator must come from vclock.NewStream or Clock.RNG;
//  2. the stream-name argument of vclock.NewStream / Clock.RNG must be a
//     constant declared in internal/vclock, the single registry of stream
//     names — a string literal at the call site is an unregistered
//     stream.
//
// The global math/rand source is the determinism pass's rule. Commands
// (package main) are exempt from rule 1 — their job is wiring — but rule
// 2 applies everywhere: the registry is only authoritative if nothing
// bypasses it.
const passRngstream = "rngstream"

// randCtorFuncs are the math/rand and math/rand/v2 functions that build a
// generator from an explicit seed or source instead of drawing from the
// process-global one. The determinism pass lets them through; this pass
// confines them to internal/vclock.
var randCtorFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// vclockStreamFuncs are the blessed stream accessors whose first argument
// is a registered stream name.
var vclockStreamFuncs = map[string]bool{"NewStream": true, "RNG": true}

// isVclockPkg reports whether a types package is internal/vclock.
func isVclockPkg(p *types.Package) bool {
	return p != nil && strings.HasSuffix(p.Path(), "internal/vclock")
}

// runRngstream applies the rngstream pass to one unit.
func runRngstream(u *Unit, report func(Finding)) {
	if isVclockPkg(u.Pkg) {
		return // the registry package constructs generators and plumbs names through parameters
	}
	for _, file := range u.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if !u.IsMain() {
					checkRandConstructor(u, call, report)
				}
				checkStreamName(u, call, report)
			}
			return true
		})
	}
}

// checkRandConstructor flags generator construction outside vclock
// (rule 1).
func checkRandConstructor(u *Unit, call *ast.CallExpr, report func(Finding)) {
	path, name := u.pkgCall(call)
	if (path == "math/rand" || path == "math/rand/v2") && randCtorFuncs[name] {
		report(Finding{
			Pos:  u.Fset.Position(call.Pos()),
			Pass: passRngstream,
			Message: "rand." + name + " constructs a generator outside internal/vclock; " +
				"take a stream from vclock.NewStream or Clock.RNG with a registered name",
		})
	}
}

// checkStreamName enforces rule 2: the name argument of NewStream /
// Clock.RNG resolves to a constant declared in internal/vclock.
func checkStreamName(u *Unit, call *ast.CallExpr, report func(Finding)) {
	var fnObj *types.Func
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		fnObj, _ = u.Info.Uses[f.Sel].(*types.Func)
	case *ast.Ident:
		fnObj, _ = u.Info.Uses[f].(*types.Func)
	}
	if fnObj == nil || !isVclockPkg(fnObj.Pkg()) || !vclockStreamFuncs[fnObj.Name()] || len(call.Args) == 0 {
		return
	}
	if streamNameIsRegistered(u, call.Args[0]) {
		return
	}
	report(Finding{
		Pos:  u.Fset.Position(call.Args[0].Pos()),
		Pass: passRngstream,
		Message: "stream name passed to vclock." + fnObj.Name() + " is not a constant from the " +
			"internal/vclock registry; declare a vclock.Stream constant and use it",
	})
}

// streamNameIsRegistered reports whether the expression is (or trivially
// wraps) a constant declared in internal/vclock.
func streamNameIsRegistered(u *Unit, e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return false
	}
	c, ok := u.Info.Uses[id].(*types.Const)
	return ok && isVclockPkg(c.Pkg())
}
