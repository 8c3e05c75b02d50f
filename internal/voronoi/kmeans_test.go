package voronoi

import (
	"math/rand"
	"testing"

	"imtao/internal/geo"
)

func TestKMeansErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	if _, err := KMeansWeighted(rng, pts, nil, 0, 10); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := KMeansWeighted(rng, pts, nil, 3, 10); err == nil {
		t.Error("k > n must fail")
	}
}

func TestKMeansRecoversSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(192))
	truth := []geo.Point{geo.Pt(100, 100), geo.Pt(900, 100), geo.Pt(500, 900)}
	var pts []geo.Point
	for _, c := range truth {
		for i := 0; i < 60; i++ {
			pts = append(pts, geo.Pt(c.X+rng.NormFloat64()*20, c.Y+rng.NormFloat64()*20))
		}
	}
	centers, err := KMeansWeighted(rng, pts, nil, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Every true cluster center must have a recovered center nearby.
	for _, want := range truth {
		best := 1e18
		for _, got := range centers {
			if d := want.Dist(got); d < best {
				best = d
			}
		}
		if best > 30 {
			t.Fatalf("cluster at %v not recovered (nearest center %v away)", want, best)
		}
	}
}

func TestKMeansImprovesObjectiveOverRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	var pts []geo.Point
	for i := 0; i < 300; i++ {
		pts = append(pts, geo.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
	centers, err := KMeansWeighted(rng, pts, nil, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	kmSS := WithinClusterSS(pts, centers)
	// Average over a few random placements.
	var randSS float64
	const trials = 5
	for tr := 0; tr < trials; tr++ {
		randCenters := make([]geo.Point, 10)
		for i := range randCenters {
			randCenters[i] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		randSS += WithinClusterSS(pts, randCenters)
	}
	randSS /= trials
	if kmSS >= randSS {
		t.Fatalf("k-means SS %v not better than random placement %v", kmSS, randSS)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(194))
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Pt(5, 5) // all identical
	}
	centers, err := KMeansWeighted(rng, pts, nil, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 3 {
		t.Fatalf("centers = %d", len(centers))
	}
	if got := WithinClusterSS(pts, centers); got != 0 {
		t.Fatalf("SS = %v on degenerate input", got)
	}
}
