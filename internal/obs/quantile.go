package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Quantile is a lock-free log-bucketed latency recorder with bounded
// relative error — the HDR-histogram idea specialised to float64 seconds.
//
// Samples land in logarithmic buckets derived directly from the float's bit
// pattern: 2^quantSubBits sub-buckets per power of two, so every recorded
// value is reconstructed to within ±1/2^(quantSubBits+1) relative error
// (~1.6% at the default 32 sub-buckets per octave). That is exact enough to
// report p50/p90/p99/p999 honestly while keeping Observe to a handful of
// atomic adds: no locks, no allocation, no clock reads — safe for the
// zero-allocation steady-state paths of the game engine (the AllocsPerRun
// gates in collab cover an Observe per iteration).
//
// A Quantile answers "what is p999" directly, which is what the perf gate
// and imtao-top need.
//
// The zero value is NOT ready to use; construct with NewQuantile or
// Registry.Quantile (min/max tracking needs a sentinel).
type Quantile struct {
	count    atomic.Int64
	sumBits  atomic.Uint64
	minBits  atomic.Uint64 // Float64bits of the smallest sample (init +Inf)
	maxBits  atomic.Uint64 // Float64bits of the largest sample (init 0)
	rejected atomic.Int64  // non-finite samples dropped by Observe
	counts   [quantBuckets]atomic.Int64
}

const (
	// quantSubBits sub-divides every power of two into 2^quantSubBits
	// geometric sub-buckets: 5 → 32 sub-buckets, ≤ ~1.6% mid-point error.
	quantSubBits  = 5
	quantSubCount = 1 << quantSubBits
	// quantMinExp is the lowest covered octave, [2^-30, 2^-29) s ≈ 1ns —
	// below any latency the pipeline can measure; smaller samples (and
	// zero) clamp into bucket 0.
	quantMinExp = -30
	// quantOctaves octaves span up to 2^34 s ≈ 540 years; larger samples
	// clamp into the top bucket.
	quantOctaves = 64
	quantBuckets = quantOctaves * quantSubCount
)

// NewQuantile returns an empty recorder.
func NewQuantile() *Quantile {
	q := &Quantile{}
	q.minBits.Store(math.Float64bits(math.Inf(1)))
	return q
}

// quantIndex maps a positive finite sample to its bucket. The float's bit
// pattern already is (exponent, mantissa) in lexicographic order, so the
// bucket is the exponent octave plus the mantissa's top quantSubBits bits —
// no Log call, no branch beyond the range clamps.
func quantIndex(v float64) int {
	bits := math.Float64bits(v)
	e := int(bits>>52) - 1023 // subnormals give -1023 and clamp below
	if e < quantMinExp {
		return 0
	}
	if e >= quantMinExp+quantOctaves {
		return quantBuckets - 1
	}
	sub := int(bits>>(52-quantSubBits)) & (quantSubCount - 1)
	return (e-quantMinExp)<<quantSubBits + sub
}

// quantValue is the representative (mid-point) value of a bucket — the
// reconstruction every quantile read reports.
func quantValue(idx int) float64 {
	e := quantMinExp + idx>>quantSubBits
	sub := idx & (quantSubCount - 1)
	return math.Ldexp(1+(float64(sub)+0.5)/quantSubCount, e)
}

// Observe records one sample, in seconds. Non-finite samples (NaN, ±Inf) are
// rejected — counted in Rejected, never in the distribution — and negative
// or zero samples clamp into the smallest bucket: a torn clock can produce
// them, and dropping latency samples would silently bias the quantiles low.
// Observe is lock-free and allocation-free.
func (q *Quantile) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		q.rejected.Add(1)
		return
	}
	if v <= 0 {
		v = 0 // clamps to bucket 0; recorded in sum as 0
	}
	q.counts[quantIndex(v)].Add(1)
	q.count.Add(1)
	for {
		old := q.sumBits.Load()
		if q.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := q.minBits.Load()
		if v >= math.Float64frombits(old) || q.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := q.maxBits.Load()
		if v <= math.Float64frombits(old) || q.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records d as seconds.
func (q *Quantile) ObserveDuration(d time.Duration) { q.Observe(d.Seconds()) }

// Count returns the number of recorded samples.
func (q *Quantile) Count() int64 { return q.count.Load() }

// Sum returns the sum of recorded samples in seconds.
func (q *Quantile) Sum() float64 { return math.Float64frombits(q.sumBits.Load()) }

// Rejected returns the number of non-finite samples dropped by Observe.
func (q *Quantile) Rejected() int64 { return q.rejected.Load() }

// Max returns the exact largest recorded sample (0 with no samples).
func (q *Quantile) Max() float64 { return math.Float64frombits(q.maxBits.Load()) }

// Min returns the exact smallest recorded sample (+Inf with no samples).
func (q *Quantile) Min() float64 { return math.Float64frombits(q.minBits.Load()) }

// QuantileSnapshot is a point-in-time copy of a recorder, safe to read while
// Observe keeps running on the live instance.
type QuantileSnapshot struct {
	Count    int64
	Sum      float64
	Min, Max float64 // exact extremes; Min == +Inf, Max == 0 when empty
	Rejected int64
	counts   []int64
}

// Snapshot copies the recorder's state. The bucket copy is internally
// consistent for rank arithmetic (Count is re-derived from the copied
// buckets, so a mid-copy Observe cannot push a rank past the data).
func (q *Quantile) Snapshot() QuantileSnapshot {
	s := QuantileSnapshot{
		Sum:      q.Sum(),
		Min:      q.Min(),
		Max:      q.Max(),
		Rejected: q.Rejected(),
		counts:   make([]int64, quantBuckets),
	}
	var total int64
	for i := range q.counts {
		c := q.counts[i].Load()
		s.counts[i] = c
		total += c
	}
	s.Count = total
	return s
}

// Quantile returns the q-quantile (0 ≤ p ≤ 1) of the snapshot by the
// nearest-rank method over the log buckets: the value reported is the
// mid-point of the bucket holding rank ⌈p·n⌉, so it is within the recorder's
// relative-error bound of the exact order statistic. Empty snapshots return
// 0. p == 0 returns the exact minimum and p == 1 the exact maximum.
func (s QuantileSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return quantValue(i)
		}
	}
	return s.Max
}

// Quantile reads one quantile from the live recorder (snapshot + read).
// Prefer Snapshot when reading several.
func (q *Quantile) Quantile(p float64) float64 { return q.Snapshot().Quantile(p) }

// summaryQuantiles are the quantile labels exported for every registered
// Quantile, in Prometheus summary exposition order.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}
