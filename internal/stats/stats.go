// Package stats provides the small statistical toolkit used by the
// experiment harness and the benchmarks: summary statistics of multi-seed
// samples and exact nearest-rank quantiles.
package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	CI95Lo, CI95Hi float64 // normal-approximation 95% confidence interval of the mean
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(ss / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	se := std / math.Sqrt(float64(n))
	return Summary{
		N: n, Mean: mean, Std: std, Min: mn, Max: mx, Median: med,
		CI95Lo: mean - 1.96*se, CI95Hi: mean + 1.96*se,
	}
}
