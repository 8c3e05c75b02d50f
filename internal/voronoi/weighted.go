package voronoi

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"imtao/internal/geo"
)

// KMeansWeighted clusters points into k centers with Lloyd-style k-means
// (k-means++ seeding, Euclidean distance) and a per-point weight on the
// Lloyd updates: centroids are weight-weighted means, so they drift toward
// heavy mass and dense regions end up covered by more, spatially smaller
// clusters. It returns the k center locations. Empty clusters are re-seeded
// on the point with the largest weighted distance to its center, so exactly
// k distinct centers come back whenever the input has at least k distinct
// points of positive weight.
//
// With weights it backs the load-balanced shard partitioner (DESIGN.md
// §16): points are center locations, weights are per-center task counts,
// so cluster mass tracks game work rather than center count. With nil
// weights it is plain k-means, behind the demand-aware center-placement
// ablation (the paper drops centers uniformly at random, while a real
// platform would site depots where the demand is) and PartitionPoints.
//
// Seeding stays UNWEIGHTED k-means++ (uniform first seed, D² afterwards)
// deliberately: weighted seeding piles seeds onto heavy regions, and two
// seeds inside one tight cluster let Lloyd converge with that cluster torn
// in half — exactly the geometry the sharded engine's empty-cut contract
// cannot afford. Geometry-spread seeds keep attachment cluster-atomic on
// well-separated inputs; the weights then act only through the centroid
// drift (and the caller's rebalance pass).
//
// A nil weights slice or an all-zero total degrades to the unweighted
// behavior (every weight treated as 1); individual zero weights are valid
// and simply contribute no mass.
func KMeansWeighted(rng *rand.Rand, points []geo.Point, weights []float64, k, iterations int) ([]geo.Point, error) {
	if k <= 0 {
		return nil, errors.New("voronoi: k must be positive")
	}
	if len(points) < k {
		return nil, errors.New("voronoi: fewer points than clusters")
	}
	if weights != nil && len(weights) != len(points) {
		return nil, errors.New("voronoi: weights length mismatch")
	}
	if iterations <= 0 {
		iterations = 32
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	var totalW float64
	for i := range points {
		totalW += w(i)
	}
	if totalW <= 0 {
		weights = nil
		totalW = float64(len(points))
	}

	// Unweighted k-means++ seeding (see the doc comment for why the weights
	// stay out of the seed distribution).
	centers := make([]geo.Point, 0, k)
	centers = append(centers, points[rng.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centers) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := p.Dist2(c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += d2[i]
		}
		if total == 0 {
			// Remaining points coincide with existing centers; place
			// duplicates (degenerate but defined).
			centers = append(centers, points[rng.Intn(len(points))])
			continue
		}
		r := rng.Float64() * total
		for i := range points {
			r -= d2[i]
			if r <= 0 {
				centers = append(centers, points[i])
				break
			}
		}
	}

	assign := make([]int, len(points))
	for it := 0; it < iterations; it++ {
		changed := false
		for i, p := range points {
			best, bd := 0, math.Inf(1)
			for ci, c := range centers {
				if d := p.Dist2(c); d < bd {
					best, bd = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute weighted means.
		sums := make([]geo.Point, k)
		mass := make([]float64, k)
		for i, p := range points {
			sums[assign[i]] = sums[assign[i]].Add(p.Scale(w(i)))
			mass[assign[i]] += w(i)
		}
		for ci := range centers {
			if mass[ci] == 0 {
				// Re-seed an empty (massless) cluster on the heaviest
				// misfit: the point with the largest weighted distance to
				// its current center.
				far, fd := 0, -1.0
				for i, p := range points {
					if d := p.Dist2(centers[assign[i]]) * w(i); d > fd {
						far, fd = i, d
					}
				}
				centers[ci] = points[far]
				changed = true
				continue
			}
			centers[ci] = sums[ci].Scale(1 / mass[ci])
		}
		if !changed {
			break
		}
	}
	return centers, nil
}

// PartitionWeightedPoints is the load-balanced sibling of PartitionPoints:
// points cluster under KMeansWeighted, then a bounded greedy rebalance pass
// shifts boundary points from overweight clusters to underweight neighbors
// so per-cluster mass approaches the mean. Labels are canonicalized by
// first appearance exactly like PartitionPoints, and the result is a pure
// function of (seed, points, weights, k) — deterministic under any caller
// parallelism.
//
// The rebalance is bounded (a few passes, at most 2·len(points) moves) and
// conservative: a point only moves to the non-source cluster costing it the
// least added distance, and only while the move strictly shrinks the
// squared-load imbalance (donor minus recipient exceeds the point's
// weight). Clusters left empty are dropped, so the returned count can be
// below k.
func PartitionWeightedPoints(seed int64, points []geo.Point, weights []float64, k int) ([]int, int) {
	labels := make([]int, len(points))
	if len(points) == 0 {
		return labels, 0
	}
	if k > len(points) {
		k = len(points)
	}
	if k <= 1 {
		return labels, 1
	}

	rng := rand.New(rand.NewSource(seed))
	centers, err := KMeansWeighted(rng, points, weights, k, 0)
	if err != nil {
		// Unreachable after the clamps above; degrade to one cluster.
		return labels, 1
	}

	for i, p := range points {
		best, bd := 0, math.Inf(1)
		for ci, c := range centers {
			if d := p.Dist2(c); d < bd {
				best, bd = ci, d
			}
		}
		labels[i] = best
	}

	rebalanceLabels(points, weights, centers, labels)

	// Canonical relabeling by first appearance.
	remap := make([]int, len(centers))
	for i := range remap {
		remap[i] = -1
	}
	next := 0
	for i, l := range labels {
		if remap[l] < 0 {
			remap[l] = next
			next++
		}
		labels[i] = remap[l]
	}
	return labels, next
}

const (
	maxRebalancePasses = 8
	// rebalanceMaxStretch is the single-linkage coherence gate on rebalance
	// moves, in squared-distance units: a point may move only if its nearest
	// neighbor inside the destination cluster is at most 2× as far (squared
	// ≤ 4×) as its nearest neighbor remaining in the source cluster. On a
	// contiguous geography boundary points have destination neighbors at
	// source-neighbor range and move freely; a point whose only route to the
	// destination crosses an empty gap — a well-separated blob — never
	// moves, so balancing cannot tear a coherent blob apart (the property
	// the sharded engine's empty-cut contract leans on). A gate on centroid
	// distances cannot express this: a cluster spanning two blobs parks its
	// centroid mid-gap, making every centroid ratio look tame.
	rebalanceMaxStretch = 4.0
)

// rebalanceLabels runs the bounded greedy load-rebalance in place. Each
// applied move strictly decreases Σ load² (the donor exceeds the recipient
// by more than the moved weight), so the pass loop terminates even without
// the move budget; the budget caps worst-case work. Candidate order is
// (distance penalty, point index) — fully deterministic.
func rebalanceLabels(points []geo.Point, weights []float64, centers []geo.Point, labels []int) {
	n := len(centers)
	if n <= 1 {
		return
	}
	w := func(i int) float64 {
		if weights == nil {
			return 1
		}
		return weights[i]
	}
	loads := make([]float64, n)
	var total float64
	for i := range points {
		loads[labels[i]] += w(i)
		total += w(i)
	}
	if total <= 0 {
		return
	}
	mean := total / float64(n)
	maxMoves := 2 * len(points)
	moves := 0

	type move struct {
		i, dst  int
		penalty float64
	}
	var cands []move
	for pass := 0; pass < maxRebalancePasses && moves < maxMoves; pass++ {
		cands = cands[:0]
		for i, p := range points {
			src := labels[i]
			wi := w(i)
			if wi <= 0 || loads[src] <= mean {
				continue
			}
			// Single-linkage gate inputs: nearest neighbor in the source
			// cluster and per-cluster nearest neighbor elsewhere.
			nearSrc := math.Inf(1)
			nearDst := make([]float64, n)
			for ci := range nearDst {
				nearDst[ci] = math.Inf(1)
			}
			for j, q := range points {
				if j == i {
					continue
				}
				d := p.Dist2(q)
				if labels[j] == src {
					if d < nearSrc {
						nearSrc = d
					}
				} else if d < nearDst[labels[j]] {
					nearDst[labels[j]] = d
				}
			}
			dCur := p.Dist2(centers[src])
			best, bp := -1, math.Inf(1)
			for ci, c := range centers {
				if ci == src || loads[ci] >= mean || loads[src]-loads[ci] <= wi {
					continue
				}
				// A lone point in its cluster (nearSrc = +Inf) may go
				// anywhere; otherwise the destination must hold a neighbor
				// within the coherence stretch.
				if nearDst[ci] > rebalanceMaxStretch*nearSrc {
					continue
				}
				d := p.Dist2(c)
				if pen := d - dCur; pen < bp {
					best, bp = ci, pen
				}
			}
			if best >= 0 {
				cands = append(cands, move{i, best, bp})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].penalty != cands[b].penalty {
				return cands[a].penalty < cands[b].penalty
			}
			return cands[a].i < cands[b].i
		})
		applied := false
		for _, m := range cands {
			if moves >= maxMoves {
				break
			}
			src, wi := labels[m.i], w(m.i)
			// Re-check against live loads: earlier moves this pass may have
			// already balanced either side.
			if src == m.dst || loads[src] <= mean || loads[m.dst] >= mean || loads[src]-loads[m.dst] <= wi {
				continue
			}
			labels[m.i] = m.dst
			loads[src] -= wi
			loads[m.dst] += wi
			moves++
			applied = true
		}
		if !applied {
			break
		}
	}
}
