package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The hotpath pass turns the repo's hand-written allocs-per-run tests
// into a compile-time gate. A function annotated //harplint:hotpath —
// sim's per-slot step/transmit, the CoAP codec, obs event emission — and
// everything it transitively calls must be free of the heap-allocating
// constructs the analyzer can prove locally:
//
//   - make / new and map or slice literals;
//   - composite literals whose address escapes (&T{...});
//   - append to a slice that is not provably reused storage (a field,
//     parameter, package variable, or a local derived from one);
//   - string concatenation, string<->[]byte/[]rune conversions and any
//     fmt call;
//   - boxing a non-pointer value into an interface argument;
//   - closures that capture variables, bound method values, and `go`
//     statements;
//   - dynamic calls through func values, which cannot be proven
//     allocation-free and must be individually allowed.
//
// Two escape hatches keep the gate precise rather than noisy: code inside
// an `if x.Enabled() { ... }` block is exempt (the zero-alloc contract is
// tracing-off; the tracer's own emission runs behind exactly that guard),
// and an unavoidable allocation — a pool refill, a cold slow path —
// carries //harplint:allow hotpath with a reason, keeping every
// intentional allocation on an auditable list. Standard-library callees
// are opaque: they produce no findings themselves (beyond the fmt rule),
// so keeping hot paths on the few proven-clean stdlib entry points is
// part of the review contract.
const passHotpath = "hotpath"

// runHotpath applies the hotpath pass over the whole module.
func runHotpath(units []*Unit, report func(Finding)) {
	g := buildCallGraph(units)
	// Roots: annotated declarations.
	type hotInfo struct {
		via  *types.Func
		root *types.Func
	}
	reach := make(map[*types.Func]*hotInfo)
	var queue []*types.Func
	for _, n := range g.order {
		if n.decl == nil {
			continue
		}
		if funcDirective(n.unit, n.decl, "hotpath") {
			reach[n.fn] = &hotInfo{root: n.fn}
			queue = append(queue, n.fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		n := g.node(fn)
		if n == nil {
			continue
		}
		for _, e := range n.out {
			if _, ok := reach[e.callee]; ok {
				continue
			}
			reach[e.callee] = &hotInfo{via: fn, root: reach[fn].root}
			queue = append(queue, e.callee)
		}
	}

	chain := func(fn *types.Func) string {
		var parts []string
		for hop := 0; fn != nil && hop < 4; hop++ {
			parts = append(parts, funcDisplayName(fn))
			info := reach[fn]
			if info == nil || info.via == nil {
				break
			}
			fn = info.via
		}
		// Render root-first.
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		return strings.Join(parts, " → ")
	}

	for _, n := range g.order {
		if n.decl == nil {
			continue
		}
		if _, hot := reach[n.fn]; !hot {
			continue
		}
		prefix := "hot path (" + chain(n.fn) + "): "
		checkHotFunc(n.unit, n.decl, func(pos token.Pos, msg string) {
			report(Finding{
				Pos:     n.unit.Fset.Position(pos),
				Pass:    passHotpath,
				Message: prefix + msg,
			})
		})
	}
}

// checkHotFunc runs the local allocation checks over one declaration.
func checkHotFunc(u *Unit, fn *ast.FuncDecl, report func(token.Pos, string)) {
	guarded := collectEnabledGuards(u, fn)
	exempt := func(pos token.Pos) bool {
		for _, r := range guarded {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}
	rep := func(pos token.Pos, msg string) {
		if !exempt(pos) {
			report(pos, msg)
		}
	}

	owned := ownedRoots(u, fn)
	callPos := make(map[ast.Expr]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callPos[call.Fun] = true
		}
		return true
	})

	ast.Inspect(fn, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkHotCall(u, e, owned, rep)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					rep(e.Pos(), "composite literal escapes to the heap; reuse pooled or preallocated storage")
				}
			}
		case *ast.CompositeLit:
			switch u.Info.Types[e].Type.Underlying().(type) {
			case *types.Map:
				rep(e.Pos(), "map literal allocates; hoist it to a package variable or struct field")
			case *types.Slice:
				rep(e.Pos(), "slice literal allocates its backing array; reuse a scratch buffer")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if t := u.Info.Types[e.X].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						rep(e.Pos(), "string concatenation allocates; use a reusable buffer or precomputed strings")
					}
				}
			}
		case *ast.GoStmt:
			rep(e.Pos(), "go statement allocates a goroutine on the hot path")
		case *ast.FuncLit:
			if captures(u, fn, e) {
				rep(e.Pos(), "closure captures variables and allocates; pass state explicitly or hoist the func")
			}
		case *ast.SelectorExpr:
			// Bound method values (x.Method used as a value) allocate a
			// closure binding the receiver.
			if callPos[e] {
				return true
			}
			if sel, ok := u.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				rep(e.Pos(), "bound method value allocates a closure; use a package-level func or direct call")
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped checks: builtins, conversions,
// fmt, boxing and dynamic calls.
func checkHotCall(u *Unit, call *ast.CallExpr, owned map[types.Object]bool, rep func(token.Pos, string)) {
	tv, known := u.Info.Types[call.Fun]
	if known && tv.IsType() {
		checkHotConversion(u, call, rep)
		return
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		switch obj := u.Info.Uses[f].(type) {
		case *types.Builtin:
			checkHotBuiltin(u, call, f.Name, owned, rep)
			return
		case *types.Var:
			_ = obj
			rep(call.Pos(), "dynamic call through func value "+f.Name+" cannot be proven allocation-free; "+
				"devirtualize it or annotate //harplint:allow hotpath with a reason")
			return
		}
	case *ast.SelectorExpr:
		if path, _ := u.pkgCall(call); path == "fmt" {
			rep(call.Pos(), "fmt."+f.Sel.Name+" allocates (interface boxing and formatting); "+
				"precompute the string or emit structured fields")
			return
		}
		if _, isVar := u.Info.Uses[f.Sel].(*types.Var); isVar {
			rep(call.Pos(), "dynamic call through func-valued field "+f.Sel.Name+" cannot be proven allocation-free; "+
				"devirtualize it or annotate //harplint:allow hotpath with a reason")
			return
		}
	}
	checkHotBoxing(u, call, rep)
}

// checkHotBuiltin flags the allocating builtins.
func checkHotBuiltin(u *Unit, call *ast.CallExpr, name string, owned map[types.Object]bool, rep func(token.Pos, string)) {
	switch name {
	case "make":
		rep(call.Pos(), "make allocates on the hot path; allocate in the constructor and reuse")
	case "new":
		rep(call.Pos(), "new allocates on the hot path; reuse pooled or preallocated storage")
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if !reusedStorage(u, call.Args[0], owned) {
			rep(call.Pos(), "append to a fresh slice allocates; append into a reused scratch buffer "+
				"(field, parameter, or a local derived from one)")
		}
	}
}

// checkHotConversion flags allocating conversions: string<->[]byte/[]rune
// and boxing a concrete non-pointer value into an interface.
func checkHotConversion(u *Unit, call *ast.CallExpr, rep func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	dst := u.Info.Types[call.Fun].Type
	src := u.Info.Types[call.Args[0]].Type
	if dst == nil || src == nil {
		return
	}
	if isStringByteConversion(dst, src) {
		rep(call.Pos(), "string/byte-slice conversion copies and allocates; keep one representation on the hot path")
		return
	}
	if types.IsInterface(dst) && !types.IsInterface(src) {
		if _, ptr := src.Underlying().(*types.Pointer); !ptr {
			rep(call.Pos(), "interface conversion boxes a non-pointer value and may allocate")
		}
	}
}

// isStringByteConversion reports string <-> []byte / []rune.
func isStringByteConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// checkHotBoxing flags concrete non-pointer arguments passed to interface
// parameters of a statically-resolved call.
func checkHotBoxing(u *Unit, call *ast.CallExpr, rep func(token.Pos, string)) {
	tv, ok := u.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := u.Info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, ptr := at.Underlying().(*types.Pointer); ptr {
			continue
		}
		rep(arg.Pos(), "argument boxes a non-pointer value into an interface parameter and may allocate")
	}
}

// collectEnabledGuards returns the position ranges of if-bodies guarded by
// an x.Enabled() call — the tracing-on branches exempt from the
// zero-alloc contract.
func collectEnabledGuards(u *Unit, fn *ast.FuncDecl) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(fn, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condCallsEnabled(ifs.Cond) {
			out = append(out, [2]token.Pos{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// condCallsEnabled reports whether the condition is (or conjoins) a call
// to a method named Enabled.
func condCallsEnabled(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Enabled"
		}
	case *ast.BinaryExpr:
		if v.Op == token.LAND || v.Op == token.LOR {
			return condCallsEnabled(v.X) || condCallsEnabled(v.Y)
		}
	case *ast.ParenExpr:
		return condCallsEnabled(v.X)
	}
	return false
}

// ownedRoots collects the objects that count as reused storage roots for
// the append rule: the receiver, parameters and named results.
func ownedRoots(u *Unit, fn *ast.FuncDecl) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			if obj := u.Info.Defs[name]; obj != nil {
				owned[obj] = true
			}
		}
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			addField(f)
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			addField(f)
		}
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			addField(f)
		}
	}
	return owned
}

// reusedStorage reports whether the append destination is provably backed
// by storage that outlives the call: rooted at a field, package variable,
// receiver, parameter, or a local initialised from one (following simple
// `x := expr` chains).
func reusedStorage(u *Unit, e ast.Expr, owned map[types.Object]bool) bool {
	for depth := 0; depth < 8; depth++ {
		// A slice built by appending to reused storage is itself reused
		// (`buf := append(dst, hdr)` extends the caller's buffer).
		if call, ok := e.(*ast.CallExpr); ok {
			id, ok := call.Fun.(*ast.Ident)
			if !ok || len(call.Args) == 0 {
				return false
			}
			if _, isBuiltin := u.Info.Uses[id].(*types.Builtin); !isBuiltin || id.Name != "append" {
				return false
			}
			e = call.Args[0]
			continue
		}
		root := rootOfStorage(e)
		if root == nil {
			return false
		}
		obj := u.Info.Uses[root]
		if obj == nil {
			obj = u.Info.Defs[root]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if v.IsField() || owned[v] {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe.Parent() {
			// Defensive: should not happen; package scope handled below.
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level variable
		}
		// A local: follow its initialiser if it is a simple definition.
		init := localInit(u, v)
		if init == nil {
			return false
		}
		e = init
	}
	return false
}

// rootOfStorage returns the base identifier of a storage expression,
// looking through selectors, indexing, slicing, derefs and parens.
func rootOfStorage(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
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

// localInit finds the initialiser expression of a local variable defined
// by `x := expr` or `var x = expr` (single-value forms only).
func localInit(u *Unit, v *types.Var) ast.Expr {
	var init ast.Expr
	for _, f := range u.Files {
		if u.Fset.Position(f.Pos()).Filename != u.Fset.Position(v.Pos()).Filename {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if init != nil {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if u.Info.Defs[id] == v {
					init = as.Rhs[i]
					return false
				}
			}
			return true
		})
		if init != nil {
			break
		}
	}
	return init
}

// captures reports whether the func literal references a variable declared
// in the enclosing declaration outside the literal itself.
func captures(u *Unit, encl *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := u.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= encl.Pos() && v.Pos() <= encl.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			found = true
			return false
		}
		return true
	})
	return found
}
