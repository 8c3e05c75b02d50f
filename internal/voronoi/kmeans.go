package voronoi

import (
	"math"

	"imtao/internal/geo"
)

// WithinClusterSS returns the sum of squared distances of each point to its
// nearest center — the k-means objective, used to compare placements.
func WithinClusterSS(points, centers []geo.Point) float64 {
	var total float64
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range centers {
			if d := p.Dist2(c); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}
