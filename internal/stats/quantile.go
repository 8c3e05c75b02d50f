package stats

import (
	"math"
	"sort"
)

// Quantile returns the exact p-quantile (0 ≤ p ≤ 1) of xs by the
// nearest-rank method: the value at rank ⌈p·n⌉ of the ascending sample.
// This is the same definition the obs.Quantile recorder approximates with
// log buckets, so bench numbers computed here and live numbers scraped from
// /metrics agree up to the recorder's relative-error bound (property-tested
// in the obs package). xs is not modified; an empty sample returns 0.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
