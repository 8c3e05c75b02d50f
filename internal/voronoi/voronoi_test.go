package voronoi

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"imtao/internal/geo"
)

func randSites(rng *rand.Rand, n int, scale float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Pt(rng.Float64()*scale, rng.Float64()*scale)
	}
	return pts
}

func TestNewDiagramErrors(t *testing.T) {
	b := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	if _, err := NewDiagram(nil, b); err == nil {
		t.Error("empty sites must error")
	}
	if _, err := NewDiagram([]geo.Point{geo.Pt(1, 1), geo.Pt(1, 1)}, b); err == nil {
		t.Error("duplicate sites must error")
	}
}

func TestDiagramSingleSite(t *testing.T) {
	b := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	d, err := NewDiagram([]geo.Point{geo.Pt(5, 5)}, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Cells()[0].Area()-100) > 1e-6 {
		t.Errorf("single cell area = %v", d.Cells()[0].Area())
	}
	if d.NearestSite(geo.Pt(3, 3)) != 0 {
		t.Error("NearestSite must be 0")
	}
}

func TestDiagramTwoSites(t *testing.T) {
	b := geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10))
	d, err := NewDiagram([]geo.Point{geo.Pt(2, 5), geo.Pt(8, 5)}, b)
	if err != nil {
		t.Fatal(err)
	}
	// Bisector at x=5 splits the square in half.
	if math.Abs(d.Cells()[0].Area()-50) > 1e-6 || math.Abs(d.Cells()[1].Area()-50) > 1e-6 {
		t.Errorf("cell areas = %v, %v", d.Cells()[0].Area(), d.Cells()[1].Area())
	}
	if d.NearestSite(geo.Pt(1, 1)) != 0 || d.NearestSite(geo.Pt(9, 9)) != 1 {
		t.Error("nearest-site misassigns")
	}
}

// The fundamental Voronoi property: each cell contains exactly the points of
// the bounds nearest to its site, and cells tile the bounds.
func TestDiagramNearestSiteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	for trial := 0; trial < 8; trial++ {
		sites := randSites(rng, 3+rng.Intn(40), 2000)
		d, err := NewDiagram(sites, bounds)
		if err != nil {
			t.Fatal(err)
		}
		// Tiling: total area equals bounds area.
		if got := d.TotalArea(); math.Abs(got-bounds.Area()) > 1e-3*bounds.Area() {
			t.Fatalf("trial %d: total cell area %v != bounds area %v", trial, got, bounds.Area())
		}
		// Sample random points; the cell containing each must be its nearest site.
		for q := 0; q < 200; q++ {
			p := geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
			want := bruteNearest(sites, p)
			if got := d.NearestSite(p); got != want {
				t.Fatalf("trial %d: NearestSite(%v) = %d, want %d", trial, p, got, want)
			}
			// Geometry check: point must lie in the cell of its nearest site
			// (allowing boundary fuzz).
			if !d.Cells()[want].Contains(p) {
				// p may sit on a boundary shared with another equally-near cell.
				dNear := sites[want].Dist(p)
				onBoundary := false
				for i := range sites {
					if i != want && math.Abs(sites[i].Dist(p)-dNear) < 1e-6 {
						onBoundary = true
						break
					}
				}
				if !onBoundary {
					t.Fatalf("trial %d: cell %d does not contain its nearest point %v", trial, want, p)
				}
			}
		}
	}
}

// On a shuffled lattice of sites, the queries on the quarter-step lattice
// in and around the bounds include exact ties between two and four sites;
// NearestSite must pick the smallest index among them, as brute force does.
func TestDiagramNearestSiteLatticeTies(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sites []geo.Point
	for x := 0; x < 12; x++ {
		for y := 0; y < 9; y++ {
			sites = append(sites, geo.Pt(float64(x)*100, float64(y)*100))
		}
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	d, err := NewDiagram(sites, geo.NewRect(geo.Pt(0, 0), geo.Pt(1100, 800)))
	if err != nil {
		t.Fatal(err)
	}
	for x := -300.0; x <= 1400; x += 25 {
		for y := -300.0; y <= 1100; y += 25 {
			p := geo.Pt(x, y)
			if got, want := d.NearestSite(p), bruteNearest(sites, p); got != want {
				t.Fatalf("NearestSite(%v) = %d at d²=%v, want %d", p, got, sites[got].Dist2(p), want)
			}
		}
	}
}

// bruteNearest is the reference nearest site of p: the smallest index among
// the sites at the least squared distance.
func bruteNearest(sites []geo.Point, p geo.Point) int {
	best, bd := 0, math.Inf(1)
	for i, s := range sites {
		if d := s.Dist2(p); d < bd {
			best, bd = i, d
		}
	}
	return best
}

func TestDiagramCellsContainTheirSites(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	sites := randSites(rng, 25, 1000)
	d, err := NewDiagram(sites, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		if !d.Cells()[i].Contains(s) {
			t.Errorf("cell %d does not contain its own site %v", i, s)
		}
	}
}

// Cells is built once however many goroutines ask for it first, while
// others query nearest sites.
func TestDiagramCellsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sites := randSites(rng, 40, 1000)
	d, err := NewDiagram(sites, geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	cells := make([][]geo.Polygon, 4)
	var wg sync.WaitGroup
	for g := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[g] = d.Cells()
			for i, s := range sites {
				if got := d.NearestSite(s); got != i {
					t.Errorf("NearestSite(site %d) = %d", i, got)
				}
			}
		}()
	}
	wg.Wait()
	for g := range cells {
		if &cells[g][0] != &cells[0][0] {
			t.Fatal("Cells built more than once")
		}
	}
}

func BenchmarkDiagram50(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	sites := randSites(rng, 50, 2000)
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDiagram(sites, bounds); err != nil {
			b.Fatal(err)
		}
	}
}
