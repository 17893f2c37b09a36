package main

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Unit is one type-checked package: the parsed (non-test) files plus the
// go/types objects the passes query. Loading is go/packages-free by design
// — the module graph is small, and a stdlib-only loader keeps harplint
// dependency-free and fast to bootstrap in CI.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// DebugFiles are the files only the harpdebug build compiles, and
	// DebugInfo holds the identifier uses of that build (DebugFiles in
	// place of the files the tag excludes); both are nil when no file of
	// the package depends on the tag. Only the unused pass reads
	// DebugInfo: code that only the invariant hooks call is still called.
	DebugFiles []*ast.File
	DebugInfo  *types.Info
}

// IsMain reports whether the unit is a command (package main).
func (u *Unit) IsMain() bool { return u.Pkg.Name() == "main" }

// allFiles returns the default build's files followed by the
// harpdebug-only ones.
func (u *Unit) allFiles() []*ast.File {
	return append(u.Files[:len(u.Files):len(u.Files)], u.DebugFiles...)
}

// pkgCall returns the import path and function name of a package-qualified
// call such as time.Now(), or two empty strings for any other call.
func (u *Unit) pkgCall(call *ast.CallExpr) (path, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkgName, ok := u.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pkgName.Imported().Path(), sel.Sel.Name
}

// parsedPkg is a package after parsing but before type-checking.
type parsedPkg struct {
	importPath string
	files      []*ast.File
	imports    []string // module-local imports only
	// debugFiles are the files only the harpdebug build compiles, and
	// debugDrops the default-build files it leaves out.
	debugFiles []*ast.File
	debugDrops map[*ast.File]bool
}

// debugTag is the build tag that compiles in the invariant hooks.
const debugTag = "harpdebug"

// moduleRoot walks up from dir until it finds go.mod, returning the root
// directory and the module path.
func moduleRoot(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("harplint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("harplint: no go.mod above %s", abs)
		}
	}
}

// walkPackageDirs lists every directory under base that contains at least
// one non-test .go file, skipping hidden, underscore, vendor and testdata
// trees.
func walkPackageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "vendor" || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// buildTagSatisfied evaluates a file's //go:build constraint (if any)
// against the default build configuration — the host GOOS/GOARCH, the gc
// toolchain — plus the custom tag extra when it is not empty. The passes
// analyse harpdebug-style debug files in their default (disabled)
// variant; the unused pass also reads the extra = harpdebug one.
func buildTagSatisfied(f *ast.File, extra string) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return expr.Eval(func(tag string) bool {
				switch tag {
				case runtime.GOOS, runtime.GOARCH, "gc":
					return true
				case extra:
					return true
				case "unix":
					return runtime.GOOS == "linux" || runtime.GOOS == "darwin"
				}
				if rest, ok := strings.CutPrefix(tag, "go1."); ok {
					if minor, err := strconv.Atoi(rest); err == nil {
						return minor <= goMinorVersion()
					}
				}
				return false
			})
		}
	}
	return true
}

// goMinorVersion extracts the running toolchain's minor version (e.g. 24
// for go1.24.0).
func goMinorVersion() int {
	v := strings.TrimPrefix(runtime.Version(), "go1.")
	if i := strings.IndexByte(v, '.'); i >= 0 {
		v = v[:i]
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 99 // devel builds satisfy everything
	}
	return n
}

// parseDir parses the default-build non-test files of one package
// directory into a parsedPkg, or nil if the directory holds no such files.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*parsedPkg, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &parsedPkg{importPath: importPath}
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		inDefault, inDebug := buildTagSatisfied(f, ""), buildTagSatisfied(f, debugTag)
		switch {
		case inDefault && !inDebug:
			if p.debugDrops == nil {
				p.debugDrops = make(map[*ast.File]bool)
			}
			p.debugDrops[f] = true
		case inDebug && !inDefault:
			p.debugFiles = append(p.debugFiles, f)
		}
		if inDefault {
			p.files = append(p.files, f)
		} else if !inDebug {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	if len(p.files) == 0 {
		return nil, nil // a package only harpdebug builds is not linted
	}
	for imp := range importSet {
		if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
			p.imports = append(p.imports, imp)
		}
	}
	sort.Strings(p.imports)
	return p, nil
}

// moduleImporter resolves module-local import paths from the already
// type-checked units and everything else (the standard library) through the
// source importer, which builds type information from $GOROOT/src.
type moduleImporter struct {
	modulePath string
	local      map[string]*types.Package
	std        types.ImporterFrom
}

// Import implements types.Importer.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modulePath || strings.HasPrefix(path, m.modulePath+"/") {
		if pkg, ok := m.local[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("harplint: module package %s not loaded yet (import cycle?)", path)
	}
	return m.std.ImportFrom(path, "", 0)
}

// Load parses and type-checks every package of the module enclosing
// startDir, returning one Unit per package in dependency order.
func Load(startDir string) ([]*Unit, error) {
	root, modPath, err := moduleRoot(startDir)
	if err != nil {
		return nil, err
	}
	dirs, err := walkPackageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*parsedPkg)
	for _, dir := range dirs {
		p, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			byPath[p.importPath] = p
		}
	}

	sorted, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		modulePath: modPath,
		local:      make(map[string]*types.Package),
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var units []*Unit
	for _, path := range sorted {
		p := byPath[path]
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("harplint: type-checking %s: %w", path, err)
		}
		imp.local[path] = pkg
		u := &Unit{
			ImportPath: path,
			Fset:       fset,
			Files:      p.files,
			Pkg:        pkg,
			Info:       info,
		}
		if len(p.debugFiles) > 0 {
			if err := checkDebugVariant(u, p, imp); err != nil {
				return nil, err
			}
		}
		units = append(units, u)
	}
	return units, nil
}

// checkDebugVariant type-checks the harpdebug build of one package and
// records its uses on u. The variant shares the parsed files with the
// default build, so a declaration has the same position in both; its
// module imports resolve to the default builds, which the tag leaves
// unchanged wherever an exported name is concerned.
func checkDebugVariant(u *Unit, p *parsedPkg, imp types.Importer) error {
	var files []*ast.File
	for _, f := range p.files {
		if !p.debugDrops[f] {
			files = append(files, f)
		}
	}
	files = append(files, p.debugFiles...)
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(u.ImportPath, u.Fset, files, info); err != nil {
		return fmt.Errorf("harplint: type-checking %s with -tags %s: %w", u.ImportPath, debugTag, err)
	}
	u.DebugFiles, u.DebugInfo = p.debugFiles, info
	return nil
}

// topoSort orders packages so every module-local import precedes its
// importer, failing on cycles.
func topoSort(byPath map[string]*parsedPkg) ([]string, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(paths))
	var out []string
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("harplint: import cycle through %s", p)
		}
		state[p] = grey
		for _, dep := range byPath[p].imports {
			if _, present := byPath[dep]; !present {
				return fmt.Errorf("harplint: cannot locate module package %s", dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = black
		out = append(out, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
