package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The unused pass keeps the API under internal/ equal to what the system
// calls. It flags every function and method declared in a non-test file
// under internal/ that no non-test file of the module uses. harplint loads
// no test file, so code that only tests reach is flagged too. Delete it,
// move it into its package's export_test.go, or keep it with
// `//harplint:allow unused <reason>`, the reason naming the tests that
// call it from another package.
//
// A use is an identifier that resolves to the declaration: a call, a
// method value, a function passed as a value. A use of a generic
// instance counts for its origin. Uses in the harpdebug build count, so
// code that only the invariant hooks call is kept. A use inside the
// function's own body (recursion) does not count. Two kinds of
// declaration are exempt:
//
//   - methods named like a method of an interface the module mentions, or
//     of one the standard library calls by assertion or reflection
//     (dynamicMethods): dynamic dispatch reaches them without naming them;
//   - internal/invariant, the oracle package that the tests of the other
//     packages call and that internal/core cannot import.
const passUnused = "unused"

// dynamicMethods are methods the standard library calls on values it
// only knows as `any`: fmt's Stringer, GoStringer and Formatter, and the
// json and encoding marshalers.
var dynamicMethods = []string{
	"String", "GoString", "Format",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

// runUnused applies the unused pass over the whole module.
func runUnused(units []*Unit, report func(Finding)) {
	// Every declared function by the position of its name, which is also
	// its types.Func position in both builds of a package.
	decls := make(map[token.Pos]*ast.FuncDecl)
	for _, u := range units {
		for _, f := range u.allFiles() {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[fd.Name.Pos()] = fd
				}
			}
		}
	}

	used := make(map[token.Pos]bool)
	ifaceMethods := make(map[string]bool)
	for _, name := range dynamicMethods {
		ifaceMethods[name] = true
	}
	walked := make(map[types.Type]bool)
	for _, u := range units {
		for _, obj := range u.Info.Defs {
			if obj != nil {
				interfaceMethodNames(obj.Type(), ifaceMethods, walked)
			}
		}
		for _, info := range []*types.Info{u.Info, u.DebugInfo} {
			if info == nil {
				continue
			}
			for id, obj := range info.Uses {
				interfaceMethodNames(obj.Type(), ifaceMethods, walked)
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				at := fn.Origin().Pos()
				if d := decls[at]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
					continue // recursion
				}
				used[at] = true
			}
		}
	}

	for _, u := range units {
		if !strings.Contains(u.ImportPath, "/internal/") || strings.HasSuffix(u.ImportPath, "/internal/invariant") {
			continue
		}
		for _, f := range u.allFiles() {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || used[fd.Name.Pos()] {
					continue
				}
				name, kind := fd.Name.Name, "function"
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					if ifaceMethods[name] {
						continue
					}
					name, kind = receiverTypeName(fd.Recv.List[0].Type)+"."+name, "method"
				} else if name == "init" || name == "main" || name == "_" {
					continue
				}
				report(Finding{
					Pos:  u.Fset.Position(fd.Pos()),
					Pass: passUnused,
					Message: kind + " " + u.Pkg.Name() + "." + name + " has no use outside tests: delete it, " +
						"move it to export_test.go, or keep it with //harplint:allow unused naming its callers",
				})
			}
		}
	}
}

// interfaceMethodNames adds the method names of every interface t
// mentions, through pointers, containers, signatures, struct fields,
// named types' underlying types and type parameters' constraints.
func interfaceMethodNames(t types.Type, names map[string]bool, walked map[types.Type]bool) {
	if t == nil || walked[t] {
		return
	}
	walked[t] = true
	switch t := t.(type) {
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			names[t.Method(i).Name()] = true
		}
	case *types.Named:
		interfaceMethodNames(t.Underlying(), names, walked)
	case *types.TypeParam:
		interfaceMethodNames(t.Constraint(), names, walked)
	case *types.Pointer:
		interfaceMethodNames(t.Elem(), names, walked)
	case *types.Slice:
		interfaceMethodNames(t.Elem(), names, walked)
	case *types.Array:
		interfaceMethodNames(t.Elem(), names, walked)
	case *types.Chan:
		interfaceMethodNames(t.Elem(), names, walked)
	case *types.Map:
		interfaceMethodNames(t.Key(), names, walked)
		interfaceMethodNames(t.Elem(), names, walked)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				interfaceMethodNames(tuple.At(i).Type(), names, walked)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			interfaceMethodNames(t.Field(i).Type(), names, walked)
		}
	}
}
