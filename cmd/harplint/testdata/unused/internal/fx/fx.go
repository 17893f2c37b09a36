// Package fx is a fixture for the unused pass.
package fx

// Namer is an interface the module uses.
type Namer interface{ Name() string }

// T satisfies Namer; nothing calls T.Name by name.
type T struct{}

// Name is kept: Namer declares it.
func (T) Name() string { return "t" }

// Box is a generic container.
type Box[V any] struct{ v V }

// Get is reached through an instance of Box.
func (b Box[V]) Get() V { return b.v }

// First is reached through an instantiation.
func First[V any](vs []V) V { return vs[0] }

// Run is what the command calls.
func Run() int {
	debugHook()
	return First([]int{Box[int]{v: 1}.Get()})
}

// Unused is flagged: nothing calls it.
func Unused() {}

func unusedHelper() {}

// OnlyTests is flagged: only fx_test.go calls it.
func OnlyTests() {}

// countdown is flagged: it only calls itself.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// DebugOnly is kept: the harpdebug build of debugHook calls it.
func DebugOnly() {}

// Allowed is kept by its directive.
//
//harplint:allow unused a fixture seam that another package's tests call
func Allowed() {}
