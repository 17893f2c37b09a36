//go:build !harpdebug

package fx

func debugHook() {}
