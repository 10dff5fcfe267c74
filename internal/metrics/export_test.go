// Functions only this package's tests call; nothing in the program does
// (the root package's exported-surface test keeps them out of the API).

package metrics

import (
	"fmt"
	"math"
)

// Summary formats a one-line min/median/mean/max digest of samples.
func Summary(name string, xs []float64) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	c := NewCDF(xs)
	return fmt.Sprintf("%s: n=%d min=%.2f p50=%.2f mean=%.2f max=%.2f",
		name, len(xs), c.sorted[0], c.Median(), Mean(xs), c.sorted[len(xs)-1])
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
