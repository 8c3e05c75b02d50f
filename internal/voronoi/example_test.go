package voronoi_test

import (
	"fmt"

	"imtao/internal/geo"
	"imtao/internal/voronoi"
)

// Partitioning a square service area between two sites: the bisector splits
// it in half, and points are assigned to their nearest site.
func ExampleNewDiagram() {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	d, err := voronoi.NewDiagram([]geo.Point{geo.Pt(2, 5), geo.Pt(8, 5)}, bounds)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cell areas: %.0f %.0f\n", d.Cells()[0].Area(), d.Cells()[1].Area())
	fmt.Println("nearest site of (1,1):", d.NearestSite(geo.Pt(1, 1)))
	fmt.Println("nearest site of (9,9):", d.NearestSite(geo.Pt(9, 9)))
	// Output:
	// cell areas: 50 50
	// nearest site of (1,1): 0
	// nearest site of (9,9): 1
}

// Lloyd relaxation spreads clumped sites into a balanced layout.
func ExampleLloyd() {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	clumped := []geo.Point{geo.Pt(10, 10), geo.Pt(12, 10), geo.Pt(10, 12), geo.Pt(12, 12)}
	relaxed, err := voronoi.Lloyd(clumped, bounds, 50, 1e-6)
	if err != nil {
		panic(err)
	}
	before, _ := voronoi.CellAreas(clumped, bounds)
	after, _ := voronoi.CellAreas(relaxed, bounds)
	spread := func(xs []float64) float64 {
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		return mx - mn
	}
	fmt.Println("more balanced:", spread(after) < spread(before)/2)
	// Output: more balanced: true
}
