package main

import (
	"fmt"
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

// allowKey is one (file, line, pass) silenced by a comment of the form
//
//	//harplint:allow pass[,pass...] [reason]
//
// which covers its own line and the line below it.
type allowKey struct {
	file string
	line int
	pass string
}

// collectAllows scans every comment in the units for allow directives.
func collectAllows(units []*Unit) map[allowKey]bool {
	allowed := make(map[allowKey]bool)
	for _, u := range units {
		for _, f := range u.allFiles() {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//harplint:allow")
					fields := strings.Fields(rest)
					if !ok || len(fields) == 0 {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					for _, pass := range strings.Split(fields[0], ",") {
						allowed[allowKey{pos.Filename, pos.Line, strings.TrimSpace(pass)}] = true
					}
				}
			}
		}
	}
	return allowed
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
