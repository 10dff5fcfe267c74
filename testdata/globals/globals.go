// Package globals is the negative fixture of the process-globals guard
// (globals_test.go): counter, table, x and y must be reported, the
// interface assertions and the function-local variable must not.
package globals

type I interface{ M() }

type T struct{}

func (T) M() {}

var _ I = T{}

var counter int

var table = [2]bool{true, false}

var (
	x, y int
	_    I = (*T)(nil)
)

func f() int {
	var local int
	return local + counter + len(table) + x + y
}
