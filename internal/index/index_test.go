package index

import (
	"math/rand"
	"testing"

	"imtao/internal/geo"
)

func randItems(rng *rand.Rand, n int, scale float64) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Point: geo.Pt(rng.Float64()*scale, rng.Float64()*scale)}
	}
	return items
}

func TestGridNearestEmpty(t *testing.T) {
	g := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(1, 1)), 1, 1)
	if _, ok := g.Nearest(geo.Pt(0, 0)); ok {
		t.Error("empty grid Nearest must report !ok")
	}
}

func TestGridNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	for trial := 0; trial < 20; trial++ {
		items := randItems(rng, 1+rng.Intn(400), 1000)
		// Index a random two thirds, sized for all items, in shuffled order.
		var live []Item
		for _, it := range items {
			if rng.Intn(3) != 0 {
				live = append(live, it)
			}
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		g := NewGrid(bounds, len(items), 3)
		for _, it := range live {
			g.Insert(it)
		}
		for q := 0; q < 20; q++ {
			p := geo.Pt(rng.Float64()*1400-200, rng.Float64()*1400-200)
			want, wok := LinearNearest(live, p, nil)
			got, gok := g.Nearest(p)
			if wok != gok || (wok && want.ID != got.ID) {
				t.Fatalf("trial %d: grid=%v/%v linear=%v/%v q=%v", trial, got, gok, want, wok, p)
			}
		}
	}
}

func TestGridOutOfBoundsPoints(t *testing.T) {
	// Points outside the declared bounds must still be stored and found.
	g := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(10, 10)), 4, 2)
	g.Insert(Item{1, geo.Pt(-50, -50)})
	g.Insert(Item{2, geo.Pt(100, 100)})
	got, ok := g.Nearest(geo.Pt(-40, -40))
	if !ok || got.ID != 1 {
		t.Fatalf("Nearest = %+v, ok=%v", got, ok)
	}
	got, ok = g.Nearest(geo.Pt(99, 99))
	if !ok || got.ID != 2 {
		t.Fatalf("Nearest = %+v, ok=%v", got, ok)
	}
}

func BenchmarkGridNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	items := randItems(rng, 10000, 2000)
	g := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(2000, 2000)), len(items), 4)
	for _, it := range items {
		g.Insert(it)
	}
	qs := make([]geo.Point, 256)
	for i := range qs {
		qs[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(qs[i%len(qs)])
	}
}

func BenchmarkLinearNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	items := randItems(rng, 10000, 2000)
	qs := make([]geo.Point, 256)
	for i := range qs {
		qs[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LinearNearest(items, qs[i%len(qs)], nil)
	}
}
