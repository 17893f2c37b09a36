// Package lib is outside internal/, so the unused pass ignores it.
package lib

// Free is exported API of a public package.
func Free() {}
