// Package surface is the negative fixture of the root package's
// exported-surface test: Unused and T.UnusedMethod have no caller and must
// be reported; Used and T.UsedMethod are called from b.go and must not be.
package surface

type T struct{}

func Used() int { return 1 }

func Unused() int { return 2 }

func (T) UsedMethod() int { return 3 }

func (*T) UnusedMethod() int { return 4 }
