package geo

import (
	"math"
	"testing"
)

// Fuzz targets exercise the geometric predicates with adversarial float
// inputs. Under plain `go test` the seed corpus runs as regular tests; use
// `go test -fuzz FuzzX ./internal/geo` for continuous fuzzing.

func sane(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e7 {
			return false
		}
	}
	return true
}

func FuzzClosestPointIsClosest(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 5.0, 3.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, px, py float64) {
		if !sane(ax, ay, bx, by, px, py) {
			t.Skip()
		}
		s := Segment{Pt(ax, ay), Pt(bx, by)}
		p := Pt(px, py)
		cp := s.ClosestPoint(p)
		d := p.Dist(cp)
		// No sampled point on the segment may be closer.
		for i := 0; i <= 10; i++ {
			q := s.A.Lerp(s.B, float64(i)/10)
			if p.Dist(q) < d-1e-9*(1+d) {
				t.Fatalf("sample %v closer than ClosestPoint %v", q, cp)
			}
		}
	})
}
