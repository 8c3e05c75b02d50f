// Package metrics implements the evaluation quantities of the paper:
// task assignment ratios ρ (Definition 9, Eq. 2), collaboration unfairness
// U_ρ (Definition 10, Eq. 3), the utility of unfair punishment UUP (Eq. 4)
// and the game's potential function Φ (Eq. 7).
package metrics

import (
	"slices"

	"imtao/internal/model"
)

// Ratio returns the task assignment ratio ρ of one center given its assigned
// and total task counts. A center with no tasks needs nothing, so its ratio
// is defined as 1 — it is never a recipient in the collaboration game
// (consistent with the ρ < 1 filter of paper Algorithm 3 line 5).
func Ratio(assigned, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(assigned) / float64(total)
}

// Ratios returns the per-center assignment ratios ρ_i of a solution.
func Ratios(in *model.Instance, s *model.Solution) []float64 {
	out := make([]float64, len(in.Centers))
	for ci := range in.Centers {
		out[ci] = Ratio(s.PerCenter[ci].AssignedCount(), len(in.Centers[ci].Tasks))
	}
	return out
}

// Unfairness computes the collaboration unfairness U_ρ of Eq. 3: the mean
// absolute pairwise difference of assignment ratios. It is 0 for fewer than
// two centers.
//
// The O(n²) pairwise sum is never formed. With ρ sorted ascending and k
// counted from 0, Σ_{i≠j} |ρ_i − ρ_j| = 2·Σ_k (2k − n + 1)·ρ_(k); summed
// by parts, that is 2·Σ_k (k+1)(n−1−k)·(ρ_(k+1) − ρ_(k)): every gap between
// sorted neighbours, weighted by the number of pairs that straddle it. The
// gap form is the one computed, because its terms are all non-negative:
// nothing cancels, an all-equal vector gives exactly 0, and the result
// stays within rounding of the pairwise sum. The cost is one sort,
// O(n log n).
func Unfairness(rhos []float64) float64 {
	u, _ := UnfairnessScratch(rhos, nil)
	return u
}

// UnfairnessScratch is Unfairness with a caller-owned sort buffer. The
// ratios are copied into scratch, grown when it is short, and sorted there;
// rhos is not modified. The buffer is returned for the next call, so a
// caller that keeps it allocates nothing once it has grown.
func UnfairnessScratch(rhos, scratch []float64) (float64, []float64) {
	n := len(rhos)
	if n < 2 {
		return 0, scratch
	}
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	sorted := scratch[:n]
	copy(sorted, rhos)
	slices.Sort(sorted)
	var sum float64
	for k := 0; k < n-1; k++ {
		sum += float64((k+1)*(n-1-k)) * (sorted[k+1] - sorted[k])
	}
	return 2 * sum / float64(n*(n-1)), scratch
}

// SolutionUnfairness is Unfairness over the ratios of a solution.
func SolutionUnfairness(in *model.Instance, s *model.Solution) float64 {
	return Unfairness(Ratios(in, s))
}

// UUP computes the utility of unfair punishment of center i (Eq. 4):
// its own ratio minus the mean ratio of all other centers. With a single
// center the second term is empty and the utility is just ρ_i.
func UUP(rhos []float64, i int) float64 {
	n := len(rhos)
	if n == 1 {
		return rhos[0]
	}
	var others float64
	for j, r := range rhos {
		if j != i {
			others += r
		}
	}
	return rhos[i] - others/float64(n-1)
}

// Phi is the potential Φ of the collaboration game in the form the
// convergence analysis observes: the sum of per-center assignment ratios.
// With the other players' ratios held fixed — the unilateral-deviation
// semantics of the proof of Lemma 1 — a deviation that changes ρ_i by δ
// changes both the deviator's UUP (Eq. 4) and Phi by exactly δ, so Phi is
// an exact potential, and it is monotonically non-decreasing along the
// accepted best-response moves of Algorithm 3 (each accepted dispatch
// strictly raises the recipient's ratio and leaves every other ratio
// untouched). The obs layer emits it per game iteration.
func Phi(rhos []float64) float64 {
	var sum float64
	for _, r := range rhos {
		sum += r
	}
	return sum
}

// MinRatioCenter returns the index with the lowest ratio, breaking ties
// toward the smaller index — the recipient-selection rule of Algorithm 3
// line 13. among restricts the choice to the given center set; it must be
// non-empty.
func MinRatioCenter(rhos []float64, among []model.CenterID) model.CenterID {
	best := among[0]
	for _, c := range among[1:] {
		if rhos[c] < rhos[best] || (rhos[c] == rhos[best] && c < best) {
			best = c
		}
	}
	return best
}
