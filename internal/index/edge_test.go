package index

import (
	"testing"

	"imtao/internal/geo"
)

// Edge cases for the grid: duplicate locations and degenerate bounds.

func TestGridDuplicateLocations(t *testing.T) {
	// Three items on one spot, inserted in every order: a query there, or
	// anywhere else, gets the smallest ID.
	for _, order := range [][]int{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}} {
		g := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), 4, 2)
		for _, id := range order {
			g.Insert(Item{id, geo.Pt(5, 5)})
		}
		for _, q := range []geo.Point{geo.Pt(5, 5), geo.Pt(0, 0), geo.Pt(9.9, 2)} {
			if got, ok := g.Nearest(q); !ok || got.ID != 1 {
				t.Fatalf("insert order %v, query %v: grid tie must break to the smallest ID, got %v", order, q, got)
			}
		}
	}
}

func TestGridSingleCellDegenerate(t *testing.T) {
	// A grid whose bounds have zero area must still work.
	g := NewGrid(geo.Rect{Min: geo.Pt(3, 3), Max: geo.Pt(3, 3)}, 2, 2)
	g.Insert(Item{0, geo.Pt(3, 3)})
	g.Insert(Item{1, geo.Pt(4, 4)})
	got, ok := g.Nearest(geo.Pt(3.4, 3.4))
	if !ok || got.ID != 0 {
		t.Fatalf("degenerate grid Nearest = %v", got)
	}
}
