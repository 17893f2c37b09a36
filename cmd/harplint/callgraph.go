package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural engine underneath the vtime, rngstream
// and hotpath passes: a whole-module static call graph built from the
// type-checked units. The graph is deliberately conservative:
//
//   - every *use* of a function identifier inside a body becomes an edge,
//     whether it is a direct call, a `go`/`defer` statement, or a function
//     value passed somewhere else (a callback handed to vclock.Schedule is
//     assumed to run);
//   - a call through an interface method fans out to the identically-named
//     method of every module type that implements the interface, so
//     dynamic dispatch over module types is over- rather than
//     under-approximated;
//   - calls through plain func-typed variables cannot be resolved
//     statically and produce no edge — the hotpath pass flags them
//     instead of silently trusting them, and the vtime/rngstream passes
//     accept the gap (their sinks are package-level functions that are
//     always reached through identifiers).
//
// Precision degrades gracefully with partial loads: callees living in
// module packages outside the matched pattern set have no body in the
// graph and are treated as opaque, exactly like the standard library. CI
// always runs `harplint ./...`, where the graph covers the whole module.

// edgeKind classifies how a callee is reached from a caller's body.
type edgeKind int

const (
	// edgeCall is a syntactic call expression.
	edgeCall edgeKind = iota
	// edgeGo is a `go` statement spawning the callee.
	edgeGo
	// edgeRef is a function value referenced outside call position
	// (assigned, passed, stored) and assumed to eventually run.
	edgeRef
	// edgeIface fans an interface method out to a concrete implementation.
	edgeIface
)

// cgEdge is one caller→callee edge, anchored at the source position the
// callee is mentioned (edgeIface edges are anchored at the interface
// method's mention in the caller).
type cgEdge struct {
	callee *types.Func
	pos    token.Pos
	kind   edgeKind
}

// cgNode is one function in the graph. Abstract interface methods get a
// node with a nil decl/unit; module functions carry their declaration so
// passes can walk bodies and read annotations.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	unit *Unit
	out  []cgEdge
}

// CallGraph is the whole-module static call graph.
type CallGraph struct {
	nodes map[*types.Func]*cgNode
	// order lists nodes in deterministic (file, position) order so pass
	// output is stable run to run.
	order []*cgNode
}

// node returns the graph node for fn, or nil if fn is outside the module
// (or was not matched by the load patterns).
func (g *CallGraph) node(fn *types.Func) *cgNode { return g.nodes[fn] }

// ensure returns (creating if needed) a node for fn. Created-on-demand
// nodes are abstract: no decl, no unit.
func (g *CallGraph) ensure(fn *types.Func) *cgNode {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	n := &cgNode{fn: fn}
	g.nodes[fn] = n
	g.order = append(g.order, n)
	return n
}

// buildCallGraph constructs the graph over every function declared in the
// units.
func buildCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*cgNode)}

	// Pass 1: one node per declared function, in deterministic order.
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.ensure(fn)
				n.decl = fd
				n.unit = u
			}
		}
	}

	// Pass 2: edges. Every identifier resolving to a *types.Func inside a
	// body is an out-edge of the enclosing declaration; the edge kind
	// records how it was reached.
	usedIfaceMethods := make(map[*types.Func]bool)
	for _, n := range g.order {
		if n.decl == nil {
			continue
		}
		collectEdges(g, n, usedIfaceMethods)
	}

	// Pass 3: fan used interface methods out to the module types that
	// implement them. Only interfaces actually mentioned in bodies are
	// resolved — resolving every interface in scope would drown the graph
	// in io.Writer-style edges nobody dispatches through here.
	resolveInterfaceMethods(g, units, usedIfaceMethods)
	return g
}

// collectEdges walks one declaration body and records its out-edges.
func collectEdges(g *CallGraph, n *cgNode, usedIfaceMethods map[*types.Func]bool) {
	u := n.unit
	// callFuns maps the expression in call position to its kind, so the
	// identifier walk below can label edges as calls vs references.
	callFuns := make(map[ast.Expr]edgeKind)
	ast.Inspect(n.decl, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.CallExpr:
			if _, seen := callFuns[s.Fun]; !seen {
				callFuns[s.Fun] = edgeCall
			}
		case *ast.GoStmt:
			callFuns[s.Call.Fun] = edgeGo
		}
		return true
	})
	seen := make(map[cgEdge]bool)
	add := func(fn *types.Func, pos token.Pos, kind edgeKind) {
		e := cgEdge{callee: fn, pos: pos, kind: kind}
		if seen[e] {
			return
		}
		seen[e] = true
		n.out = append(n.out, e)
		g.ensure(fn)
		if isInterfaceMethod(fn) {
			usedIfaceMethods[fn] = true
		}
	}
	kindAt := func(e ast.Expr) edgeKind {
		if k, ok := callFuns[e]; ok {
			return k
		}
		return edgeRef
	}
	// Selector Sel idents are visited twice by Inspect (as part of the
	// SelectorExpr and as bare idents); record them so the Ident case
	// below does not re-add the edge with the wrong kind.
	selIdents := make(map[*ast.Ident]bool)
	ast.Inspect(n.decl, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.SelectorExpr:
			selIdents[e.Sel] = true
			if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
				add(fn, e.Sel.Pos(), kindAt(e))
			}
		case *ast.Ident:
			// Bare identifiers: package-level functions of the same
			// package, or local closures bound to named funcs.
			if fn, ok := u.Info.Uses[e].(*types.Func); ok && !selIdents[e] {
				add(fn, e.Pos(), kindAt(e))
			}
		}
		return true
	})
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// resolveInterfaceMethods adds edgeIface edges from each used interface
// method to the matching concrete method of every module type that
// implements the interface.
func resolveInterfaceMethods(g *CallGraph, units []*Unit, used map[*types.Func]bool) {
	if len(used) == 0 {
		return
	}
	// Deterministic iteration over the used abstract methods.
	methods := make([]*types.Func, 0, len(used))
	for m := range used {
		methods = append(methods, m)
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].FullName() < methods[j].FullName() })

	// All named module types, in deterministic order.
	var named []*types.Named
	for _, u := range units {
		scope := u.Pkg.Scope()
		names := scope.Names()
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}

	for _, m := range methods {
		iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		an := g.ensure(m)
		for _, nt := range named {
			if types.IsInterface(nt) {
				continue
			}
			// Pointer receivers satisfy through *T; value receivers
			// through both — checking *T covers the full method set.
			if !types.Implements(types.NewPointer(nt), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt), true, nt.Obj().Pkg(), m.Name())
			impl, ok := obj.(*types.Func)
			if !ok || impl == m {
				continue
			}
			an.out = append(an.out, cgEdge{callee: impl, pos: m.Pos(), kind: edgeIface})
			g.ensure(impl)
		}
	}
}

// funcDirective reports whether the function declaration carries a
// //harplint:<name> annotation, either in its doc comment or as a trailing
// comment on the declaration line. This is the lookup behind the realtime
// and hotpath annotations.
func funcDirective(u *Unit, fn *ast.FuncDecl, name string) bool {
	marker := "harplint:" + name
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), marker) {
				return true
			}
		}
	}
	declPos := u.Fset.Position(fn.Pos())
	for _, f := range u.Files {
		if u.Fset.Position(f.Pos()).Filename != declPos.Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if u.Fset.Position(c.Pos()).Line == declPos.Line &&
					strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), marker) {
					return true
				}
			}
		}
	}
	return false
}

// funcDisplayName renders a readable identifier for diagnostics:
// "pkg.Func" or "(pkg.Type).Method", with the module path prefix trimmed.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return shortType(t) + "." + name
	}
	if fn.Pkg() != nil {
		return shortPkg(fn.Pkg().Path()) + "." + name
	}
	return name
}

// shortType renders a receiver type with a short package qualifier.
func shortType(t types.Type) string {
	if nt, ok := t.(*types.Named); ok && nt.Obj().Pkg() != nil {
		return shortPkg(nt.Obj().Pkg().Path()) + "." + nt.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// shortPkg trims an import path to its last element.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isRuntimeUnit reports whether the unit is subject to the virtual-time
// and RNG-stream discipline: every module package except commands
// (package main owns process wiring, flags and wall-clock reporting).
func isRuntimeUnit(u *Unit) bool { return !u.IsMain() }
