package voronoi

import (
	"math"
	"math/rand"

	"imtao/internal/geo"
)

// PartitionPoints groups points into at most k geographic clusters with the
// package's seeded k-means and returns one cluster label per point plus the
// number of distinct clusters produced. It is the unweighted baseline of
// PartitionWeightedPoints, the partitioner behind the sharded collaboration
// engine (DESIGN.md §15): TestPartitionWeightedReducesSkew and collab's
// TestWeightedPlanReducesHotspotSkew measure the weighted partition's load
// skew against it. The labels are a pure function of (seed, points, k) —
// the rand.Rand driving the k-means++ initialization is derived from seed
// here rather than inherited from caller state, so the same seed always
// yields the same labels regardless of what consumed the caller's RNG
// earlier.
//
// Labels are canonicalized by first appearance: the cluster of points[0] is
// 0, the next previously-unseen cluster is 1, and so on. k-means' internal
// cluster numbering (an artifact of seeding order) therefore never leaks
// into the result. k is clamped to [1, len(points)]; clusters that end up
// empty after the final nearest-center assignment are dropped, so the
// returned count can be below k. Ties in the nearest-center assignment go
// to the lowest cluster index, matching KMeansWeighted's own assignment rule.
func PartitionPoints(seed int64, points []geo.Point, k int) ([]int, int) {
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
	centers, err := KMeansWeighted(rng, points, nil, k, 0)
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
