package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic emitted by a pass.
type Finding struct {
	Pos     token.Position
	Pass    string
	Message string
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Pass, f.Message)
}

// directiveIndex records where //harplint:allow comments appear so findings
// can be suppressed at the offending line. Two scopes exist:
//
//	//harplint:allow pass[,pass...] [reason]   — same line or the line above
//	//harplint:file-allow pass [reason]        — anywhere in the file, whole file
//
// The pass list may also be the wildcard "all".
type directiveIndex struct {
	// line maps filename -> line -> set of allowed passes on that line.
	line map[string]map[int]map[string]bool
	// file maps filename -> set of passes allowed for the whole file.
	file map[string]map[string]bool
}

// collectDirectives scans every comment in the unit's files.
func collectDirectives(u *Unit) *directiveIndex {
	idx := &directiveIndex{
		line: make(map[string]map[int]map[string]bool),
		file: make(map[string]map[string]bool),
	}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx.record(u.Fset, c)
			}
		}
	}
	return idx
}

func (idx *directiveIndex) record(fset *token.FileSet, c *ast.Comment) {
	text := strings.TrimPrefix(c.Text, "//")
	fileWide := false
	var rest string
	switch {
	case strings.HasPrefix(text, "harplint:allow"):
		rest = strings.TrimPrefix(text, "harplint:allow")
	case strings.HasPrefix(text, "harplint:file-allow"):
		rest = strings.TrimPrefix(text, "harplint:file-allow")
		fileWide = true
	default:
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return
	}
	pos := fset.Position(c.Pos())
	for _, pass := range strings.Split(fields[0], ",") {
		pass = strings.TrimSpace(pass)
		if pass == "" {
			continue
		}
		if fileWide {
			m := idx.file[pos.Filename]
			if m == nil {
				m = make(map[string]bool)
				idx.file[pos.Filename] = m
			}
			m[pass] = true
			continue
		}
		lines := idx.line[pos.Filename]
		if lines == nil {
			lines = make(map[int]map[string]bool)
			idx.line[pos.Filename] = lines
		}
		m := lines[pos.Line]
		if m == nil {
			m = make(map[string]bool)
			lines[pos.Line] = m
		}
		m[pass] = true
	}
}

// allows reports whether a finding of the given pass at pos is suppressed:
// by a file-wide allow, or by a line allow on the same line or the line
// directly above.
func (idx *directiveIndex) allows(pass string, pos token.Position) bool {
	if m := idx.file[pos.Filename]; m != nil && (m[pass] || m["all"]) {
		return true
	}
	lines := idx.line[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{pos.Line, pos.Line - 1} {
		if m := lines[l]; m != nil && (m[pass] || m["all"]) {
			return true
		}
	}
	return false
}

// sortFindings orders findings by file, line, column, then pass name for
// stable output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
